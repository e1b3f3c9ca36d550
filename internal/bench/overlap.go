package bench

import (
	"repro/internal/core"
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
		func(hi, si int) float64 { return runShape(AllSeries[si], shapes[hi], iters, size, 0).measure()[0] })
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
			pure := runShape(s, sc.shape, iters, sc.size, 0).measure()[0]
			work := pure // calibrate work to the communication time
			total := runShape(s, sc.shape, iters, sc.size, sim.Time(work*float64(sim.Microsecond))).measure()[0]
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

// runShape is one scenario's cell: the origin samples its epoch latency
// with `work` of in-epoch computation.
func runShape(s Series, shape epochShape, iters int, size int64, work sim.Time) pattern {
	// Stage the origin a few microseconds so the target's post notification
	// precedes the first RMA call, as on the paper's testbed where call
	// overheads exceed the notification latency.
	const lag = 5 * sim.Microsecond
	var origin, target []op
	switch nb := s.Nonblocking(); shape {
	case shapeGATS:
		origin = []op{barrier, compute(lag), stamp, start(1), put(1, size), compute(work), complete, sample(0)}
		if nb {
			origin = []op{barrier, compute(lag), stamp, istart(1), put(1, size), icomplete, compute(work), wait, sample(0)}
		}
		target = []op{barrier, post(0), waitEpoch}
	case shapeFence:
		origin = []op{barrier, stamp, fence(core.AssertNone), compute(lag), put(1, size), compute(work), fence(core.AssertNoSucceed), sample(0)}
		target = []op{barrier, fence(core.AssertNone), fence(core.AssertNoSucceed)}
		if nb {
			origin = []op{barrier, stamp, ifence(core.AssertNone), compute(lag), put(1, size), ifence(core.AssertNoSucceed), compute(work), wait, sample(0)}
			target = []op{barrier, ifence(core.AssertNone), ifence(core.AssertNoSucceed), wait}
		}
	case shapeLock, shapeLockAcc:
		rma := put(1, size)
		if shape == shapeLockAcc {
			rma = acc(1, size)
		}
		origin = []op{barrier, stamp, lock(1, false), rma, compute(work), unlock(1), sample(0), barrier}
		if nb {
			origin = []op{barrier, stamp, ilock(1, false), rma, iunlock(1), compute(work), wait, sample(0), barrier}
		}
		target = []op{barrier, barrier}
	}
	return pattern{opt: core.WinOptions{Mode: s.Mode()}, iters: iters, lists: [][]op{origin, target}}
}
