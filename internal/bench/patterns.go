package bench

import (
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Figures 2-6: the five inefficiency-pattern microbenchmarks. Every
// experiment reports completion times relative to a per-iteration barrier
// (the paper's "time origin taken at 0").

// Fig2LatePost reproduces Fig 2: a target (rank 0) posts its exposure
// 1000 us late; the origin (rank 2) runs an access epoch with one 1 MB put
// and then a 1 MB two-sided send to rank 1. Reported: completion time of
// the access epoch, of the two-sided activity, and of everything
// (cumulative), per series.
func Fig2LatePost(iters int) *stats.Table {
	return gridColumns("Fig 2: Late Post - delay propagation in an origin process", "us", "activity",
		[]string{"access epoch", "two-sided", "cumulative"}, labels(AllSeries, Series.String),
		func(i int) []float64 { return fig2Series(AllSeries[i], iters) })
}

// fig2Series returns one series' access-epoch, two-sided and cumulative
// completion times.
func fig2Series(s Series, iters int) []float64 {
	var aS, tS, cS []sim.Time
	runWorld(3, Config(), func(r *mpi.Rank, rt *core.Runtime) {
		win := rt.CreateWindow(r, BigMsg, core.WinOptions{Mode: s.Mode(), ShapeOnly: true})
		for it := 0; it < iters; it++ {
			r.Barrier()
			t0 := r.Now()
			switch r.ID {
			case 0: // late target
				r.Compute(Delay)
				win.Post([]int{2})
				win.WaitEpoch()
			case 1: // two-sided peer
				r.RecvMsg(2, 7)
			case 2: // origin
				if s.Nonblocking() {
					win.IStart([]int{0})
					win.Put(0, 0, nil, BigMsg)
					req := win.IComplete()
					var tAccess sim.Time
					req.OnComplete(func() { tAccess = r.Now() })
					r.SendMsg(1, 7, nil, BigMsg)
					tTwo := r.Now()
					r.Wait(req)
					aS = append(aS, tAccess-t0)
					tS = append(tS, tTwo-t0)
					cS = append(cS, r.Now()-t0)
				} else {
					win.Start([]int{0})
					win.Put(0, 0, nil, BigMsg)
					win.Complete()
					tAccess := r.Now()
					r.SendMsg(1, 7, nil, BigMsg)
					aS = append(aS, tAccess-t0)
					tS = append(tS, r.Now()-t0)
					cS = append(cS, r.Now()-t0)
				}
			}
		}
		win.Quiesce()
	})
	return []float64{mean(aS), mean(tS), mean(cS)}
}

// Fig3LateComplete reproduces Fig 3: the origin issues one put and overlaps
// 1000 us of work before closing its GATS epoch; the target-side epoch
// length is reported across message sizes. Blocking series propagate the
// origin's work to the target; the nonblocking series closes early
// (IComplete before the work), so the target waits only for the transfers.
func Fig3LateComplete(iters int, sizes []int64) *stats.Table {
	return grid("Fig 3: Late Complete - target-side epoch length", "us", "size",
		labels(sizes, sizeLabel), labels(AllSeries, Series.String),
		func(zi, si int) float64 {
			return mean(lateComplete(AllSeries[si], iters, sizes[zi], core.WinOptions{}, 0))
		})
}

// lateComplete is the Late Complete rank body (Fig 3 and the triggered-ops
// ablation): per iteration, the target's epoch completion time relative to
// the barrier. opt adds window options on top of the series' mode. targetLag
// stages the target's Post that long after the barrier, so its grant reaches
// the origin after the origin's put was recorded (0: no staging).
func lateComplete(s Series, iters int, size int64, opt core.WinOptions, targetLag sim.Time) []sim.Time {
	opt.Mode, opt.ShapeOnly = s.Mode(), true
	var dS []sim.Time
	runWorld(2, Config(), func(r *mpi.Rank, rt *core.Runtime) {
		win := rt.CreateWindow(r, BigMsg, opt)
		for it := 0; it < iters; it++ {
			r.Barrier()
			t0 := r.Now()
			if r.ID == 0 { // origin
				if s.Nonblocking() {
					win.IStart([]int{1})
					win.Put(1, 0, nil, size)
					req := win.IComplete()
					r.Compute(Delay)
					r.Wait(req)
				} else {
					win.Start([]int{1})
					win.Put(1, 0, nil, size)
					r.Compute(Delay) // in-epoch overlap (scenario 3) -> Late Complete
					win.Complete()
				}
			} else { // target
				r.Compute(targetLag)
				win.Post([]int{0})
				win.WaitEpoch()
				dS = append(dS, r.Now()-t0)
			}
		}
		win.Quiesce()
	})
	return dS
}

// Fig4EarlyFence reproduces Fig 4: one origin puts into one target inside a
// fence epoch; the target runs 1000 us of CPU-bound work after the epoch.
// Reported (at the target): cumulative latency of epoch plus work. The
// nonblocking fence lets the work overlap the epoch's data transfer even
// though the epoch is already closed.
func Fig4EarlyFence(iters int) *stats.Table {
	sizes := []int64{256 << 10, 1 << 20}
	return grid("Fig 4: Early Fence - cumulative epoch + subsequent work at target", "us", "size",
		labels(sizes, sizeLabel), labels(AllSeries, Series.String),
		func(zi, si int) float64 { return fig4Series(AllSeries[si], iters, sizes[zi]) })
}

func fig4Series(s Series, iters int, size int64) float64 {
	var dS []sim.Time
	runWorld(2, Config(), func(r *mpi.Rank, rt *core.Runtime) {
		win := rt.CreateWindow(r, BigMsg, core.WinOptions{Mode: s.Mode(), ShapeOnly: true})
		for it := 0; it < iters; it++ {
			r.Barrier()
			t0 := r.Now()
			if s.Nonblocking() {
				win.IFence(core.AssertNone)
				if r.ID == 0 {
					win.Put(1, 0, nil, size)
				}
				req := win.IFence(core.AssertNoSucceed)
				if r.ID == 1 {
					r.Compute(Delay) // overlaps the epoch's transfers
				}
				r.Wait(req)
			} else {
				win.Fence(core.AssertNone)
				if r.ID == 0 {
					win.Put(1, 0, nil, size)
				}
				win.Fence(core.AssertNoSucceed)
				if r.ID == 1 {
					r.Compute(Delay) // serialized after the blocking fence
				}
			}
			if r.ID == 1 {
				dS = append(dS, r.Now()-t0)
			}
		}
		win.Quiesce()
	})
	return mean(dS)
}

// Fig5WaitAtFence reproduces Fig 5: the origin delays its closing fence by
// 1000 us of work; the target fences immediately and its epoch length is
// reported. With nonblocking fences the origin issues its closing IFence
// before the work, so no delay propagates.
func Fig5WaitAtFence(iters int, sizes []int64) *stats.Table {
	return grid("Fig 5: Wait at Fence - target-side epoch length", "us", "size",
		labels(sizes, sizeLabel), labels(AllSeries, Series.String),
		func(zi, si int) float64 { return fig5Series(AllSeries[si], iters, sizes[zi]) })
}

func fig5Series(s Series, iters int, size int64) float64 {
	var dS []sim.Time
	runWorld(2, Config(), func(r *mpi.Rank, rt *core.Runtime) {
		win := rt.CreateWindow(r, BigMsg, core.WinOptions{Mode: s.Mode(), ShapeOnly: true})
		for it := 0; it < iters; it++ {
			r.Barrier()
			t0 := r.Now()
			if s.Nonblocking() {
				win.IFence(core.AssertNone)
				var req *mpi.Request
				if r.ID == 0 { // origin: close early, then work
					win.Put(1, 0, nil, size)
					req = win.IFence(core.AssertNoSucceed)
					r.Compute(Delay)
				} else {
					req = win.IFence(core.AssertNoSucceed)
				}
				r.Wait(req)
			} else {
				win.Fence(core.AssertNone)
				if r.ID == 0 { // origin: work, then the late closing fence
					win.Put(1, 0, nil, size)
					r.Compute(Delay)
				}
				win.Fence(core.AssertNoSucceed)
			}
			if r.ID == 1 {
				dS = append(dS, r.Now()-t0)
			}
		}
		win.Quiesce()
	})
	return mean(dS)
}

// Fig6LateUnlock reproduces Fig 6: two origins lock the same target
// exclusively; the first works 1000 us inside its epoch. Reported: each
// origin's lock-epoch duration. MVAPICH's lazy locks make the second
// origin immune (the first origin pays instead, with zero overlap); the
// new blocking design suffers Late Unlock on the second lock; the
// nonblocking design releases as soon as the transfers finish.
func Fig6LateUnlock(iters int) *stats.Table {
	return lateUnlockFigure("Fig 6: Late Unlock - delay propagation to a subsequent lock requester", AllSeries, iters)
}

// FigModes: the headline three-way mode comparison — Fig 6's Late Unlock
// pattern with one more column, so every window implementation mode has one:
//
//   - MVAPICH: vanilla lazy locks, blocking synchronizations;
//   - New (blocking / nonblocking): the paper's deferred-epoch design;
//   - Flush: the epochless design (core.ModeFlush) — foMPI's scalable
//     global/local lock protocol for mutual exclusion, with completion
//     coming from the flush family instead of epoch closure.
//
// Flush mode releases like the nonblocking series — IUnlock's release
// atomics chase the data, not the work — but pays the conditional-atomic
// protocol instead of the GATS-style lock queue, so the second origin's
// latency also exposes the retry/backoff cost of a contended conditional
// acquire.
func FigModes(iters int) *stats.Table {
	return lateUnlockFigure("Modes: Late Unlock across window modes (vanilla / new / flush)", ScaleSeries, iters)
}

// lateUnlockFigure runs the Late Unlock pattern once per series: every
// column is an independent simulation, so the table is bit-identical at any
// -workers or -shards count.
func lateUnlockFigure(title string, series []Series, iters int) *stats.Table {
	return gridColumns(title, "us", "epoch",
		[]string{"first lock (O0)", "second lock (O1)"}, labels(series, Series.String),
		func(i int) []float64 { return lateUnlock(series[i], iters) })
}

// lateUnlock is the Late Unlock rank body: two origins run an exclusive
// critical section on rank 0 — a 1 MB put, plus 1000 us of work for the
// first — and it returns the mean section latency of each.
func lateUnlock(s Series, iters int) []float64 {
	var fS, sS []sim.Time
	runWorld(3, Config(), func(r *mpi.Rank, rt *core.Runtime) {
		win := rt.CreateWindow(r, BigMsg, core.WinOptions{Mode: s.Mode(), ShapeOnly: true})
		section := func(work sim.Time) sim.Time {
			t0 := r.Now()
			if s.Nonblocking() || s == SeriesFlush {
				// Close early: the release follows the data, not the work.
				// Flush acquires by the foMPI protocol (there is no deferred
				// lock to open), and its unlock's release atomics are chained
				// behind an internal flush.
				if s == SeriesFlush {
					win.Lock(0, true)
				} else {
					win.ILock(0, true)
				}
				win.Put(0, 0, nil, BigMsg)
				req := win.IUnlock(0)
				r.Compute(work)
				r.Wait(req)
			} else {
				win.Lock(0, true)
				win.Put(0, 0, nil, BigMsg)
				r.Compute(work)
				win.Unlock(0)
			}
			return r.Now() - t0
		}
		for it := 0; it < iters; it++ {
			r.Barrier()
			switch r.ID {
			case 1: // O0: locks first, works 1000 us in the critical section
				fS = append(fS, section(Delay))
			case 2: // O1: requests the same lock shortly after O0
				r.Compute(50 * sim.Microsecond)
				sS = append(sS, section(0))
			}
			r.Barrier()
		}
		win.Quiesce()
	})
	return []float64{mean(fS), mean(sS)}
}
