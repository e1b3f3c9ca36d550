package bench

import (
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Section VIII-A's generic observations: raw epoch latency parity across
// implementations, and communication/computation overlapping. The paper
// reports that (1) latency is on par for all kinds of epochs, (2) the new
// implementation provides full overlapping in lock epochs while vanilla
// MVAPICH provides none (lazy lock acquisition), and (3) accumulates with
// payloads beyond 8 KB lose overlapping in every implementation because of
// the internal rendezvous for the target-side intermediate buffer.

// epochShape distinguishes the epoch styles measured.
type epochShape int

const (
	shapeGATS epochShape = iota
	shapeFence
	shapeLock
	shapeLockAcc
)

// LatencyParity measures the bare epoch latency (one put of the given size,
// no delays, no overlap work) per epoch style and series.
func LatencyParity(iters int, size int64) *stats.Table {
	shapes := []epochShape{shapeGATS, shapeFence, shapeLock}
	return grid("Section VIII-A: epoch latency parity (single put of "+sizeLabel(size)+")", "us", "epoch kind",
		[]string{"GATS", "fence", "lock"}, labels(AllSeries, Series.String),
		func(hi, si int) float64 { return runShape(AllSeries[si], shapes[hi], iters, size, 0) })
}

// OverlapTable measures communication/computation overlapping: the work
// placed inside each epoch equals the pure communication latency, and the
// overlap percentage is (Tcomm + Twork - Ttotal) / Twork * 100.
func OverlapTable(iters int) *stats.Table {
	type scenario struct {
		row   string
		shape epochShape
		size  int64
	}
	scenarios := []scenario{
		{"GATS put 1MB", shapeGATS, 1 << 20},
		{"fence put 1MB", shapeFence, 1 << 20},
		{"lock put 1MB", shapeLock, 1 << 20},
		{"lock acc 4KB", shapeLockAcc, 4 << 10},
		{"lock acc 64KB", shapeLockAcc, 64 << 10},
	}
	// Each cell runs its pure-latency calibration and then the overlapped
	// run sequentially — the pair is one job, so the dependency stays inside
	// the cell and cells fan out across the harness.
	return grid("Section VIII-A: communication/computation overlap", "%", "scenario",
		labels(scenarios, func(sc scenario) string { return sc.row }), labels(AllSeries, Series.String),
		func(ci, si int) float64 {
			sc, s := scenarios[ci], AllSeries[si]
			pure := runShape(s, sc.shape, iters, sc.size, 0)
			work := pure // calibrate work to the communication time
			total := runShape(s, sc.shape, iters, sc.size, sim.Time(work*float64(sim.Microsecond)))
			ov := (pure + work - total) / work * 100
			if ov < 0 {
				ov = 0
			}
			if ov > 100 {
				ov = 100
			}
			return ov
		})
}

// runShape measures the origin's epoch latency (us) for one scenario with
// `work` of in-epoch computation.
func runShape(s Series, shape epochShape, iters int, size int64, work sim.Time) float64 {
	var dS []sim.Time
	runWorld(2, Config(), func(r *mpi.Rank, rt *core.Runtime) {
		win := rt.CreateWindow(r, BigMsg, core.WinOptions{Mode: s.Mode(), ShapeOnly: true})
		for it := 0; it < iters; it++ {
			r.Barrier()
			t0 := r.Now()
			switch shape {
			case shapeGATS:
				if r.ID == 0 {
					// Stage the origin a few microseconds so the target's
					// post notification precedes the first RMA call, as on
					// the paper's testbed where call overheads exceed the
					// notification latency.
					r.Compute(5 * sim.Microsecond)
					t0 = r.Now()
					if s.Nonblocking() {
						win.IStart([]int{1})
						win.Put(1, 0, nil, size)
						req := win.IComplete()
						r.Compute(work)
						r.Wait(req)
					} else {
						win.Start([]int{1})
						win.Put(1, 0, nil, size)
						r.Compute(work)
						win.Complete()
					}
					dS = append(dS, r.Now()-t0)
				} else {
					win.Post([]int{0})
					win.WaitEpoch()
				}
			case shapeFence:
				if s.Nonblocking() {
					win.IFence(core.AssertNone)
					if r.ID == 0 {
						r.Compute(5 * sim.Microsecond) // see shapeGATS
						win.Put(1, 0, nil, size)
					}
					req := win.IFence(core.AssertNoSucceed)
					if r.ID == 0 {
						r.Compute(work)
					}
					r.Wait(req)
				} else {
					win.Fence(core.AssertNone)
					if r.ID == 0 {
						r.Compute(5 * sim.Microsecond) // see shapeGATS
						win.Put(1, 0, nil, size)
						r.Compute(work)
					}
					win.Fence(core.AssertNoSucceed)
				}
				if r.ID == 0 {
					dS = append(dS, r.Now()-t0)
				}
			case shapeLock, shapeLockAcc:
				if r.ID == 0 {
					doOp := func() {
						if shape == shapeLock {
							win.Put(1, 0, nil, size)
						} else {
							win.Accumulate(1, 0, core.OpSum, core.TUint64, nil, size)
						}
					}
					if s.Nonblocking() {
						win.ILock(1, false)
						doOp()
						req := win.IUnlock(1)
						r.Compute(work)
						r.Wait(req)
					} else {
						win.Lock(1, false)
						doOp()
						r.Compute(work)
						win.Unlock(1)
					}
					dS = append(dS, r.Now()-t0)
				}
				r.Barrier()
			}
		}
		win.Quiesce()
	})
	return mean(dS)
}
