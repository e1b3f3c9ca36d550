package bench

import (
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Figures 7-11: progress-engine optimization flags (Section VI-B). All
// tests use nonblocking synchronizations only, with the flag off and on;
// every epoch hosts a single 1 MB put and each subsequent epoch in a
// process is opened after the previous one is closed at application level.

const (
	flagOff = "flag off"
	flagOn  = "flag on"
)

// flagFigure measures one flag benchmark with the flag off and on — two
// independent simulations, one per column. measure returns the figure's row
// values for one flag state.
func flagFigure(title string, rows []string, measure func(on bool) []float64) *stats.Table {
	return gridColumns(title, "us", "measure", rows, []string{flagOff, flagOn},
		func(col int) []float64 { return measure(col == 1) })
}

// Fig7AAARGats: single origin, two targets; T0's exposure is 1000 us late.
// With A_A_A_R the second access epoch progresses out of order, so T1 does
// not inherit T0's delay and the origin overlaps the delay with its second
// epoch.
func Fig7AAARGats(iters int) *stats.Table {
	return flagFigure("Fig 7: out-of-order GATS access epochs with A_A_A_R", []string{"target T1", "origin cumulative"}, func(on bool) []float64 {
		var t1S, cumS []sim.Time
		runWorld(3, Config(), func(r *mpi.Rank, rt *core.Runtime) {
			win := rt.CreateWindow(r, BigMsg, core.WinOptions{Mode: core.ModeNew, ShapeOnly: true, Info: core.Info{AAAR: on}})
			for it := 0; it < iters; it++ {
				r.Barrier()
				t0 := r.Now()
				switch r.ID {
				case 0: // origin: two back-to-back access epochs
					win.IStart([]int{1})
					win.Put(1, 0, nil, BigMsg)
					r1 := win.IComplete()
					win.IStart([]int{2})
					win.Put(2, 0, nil, BigMsg)
					r2 := win.IComplete()
					r.Wait(r1, r2)
					cumS = append(cumS, r.Now()-t0)
				case 1: // T0, late
					r.Compute(Delay)
					win.Post([]int{0})
					win.WaitEpoch()
				case 2: // T1
					win.Post([]int{0})
					win.WaitEpoch()
					t1S = append(t1S, r.Now()-t0)
				}
			}
			win.Quiesce()
		})
		return []float64{mean(t1S), mean(cumS)}
	})
}

// Fig8AAARLock: O1 queues behind O0 on T0's exclusive lock, then locks T1.
// With A_A_A_R, O1's second epoch completes while the first is still
// waiting for O0's 1000 us of in-epoch work.
func Fig8AAARLock(iters int) *stats.Table {
	return flagFigure("Fig 8: out-of-order lock epochs with A_A_A_R", []string{"O1 cumulative"}, func(on bool) []float64 {
		var cumS []sim.Time
		runWorld(4, Config(), func(r *mpi.Rank, rt *core.Runtime) {
			win := rt.CreateWindow(r, BigMsg, core.WinOptions{Mode: core.ModeNew, ShapeOnly: true, Info: core.Info{AAAR: on}})
			for it := 0; it < iters; it++ {
				r.Barrier()
				switch r.ID {
				case 0: // O0: holds T0's lock through 1000 us of work
					win.ILock(2, true)
					win.Put(2, 0, nil, BigMsg)
					r.Compute(Delay)
					r.Wait(win.IUnlock(2))
				case 1: // O1: lock T0 (queued), then lock T1
					r.Compute(50 * sim.Microsecond)
					t0 := r.Now()
					win.ILock(2, true)
					win.Put(2, 0, nil, BigMsg)
					q1 := win.IUnlock(2)
					win.ILock(3, true)
					win.Put(3, 0, nil, BigMsg)
					q2 := win.IUnlock(3)
					r.Wait(q1, q2)
					cumS = append(cumS, r.Now()-t0)
				}
				r.Barrier()
			}
			win.Quiesce()
		})
		return []float64{mean(cumS)}
	})
}

// Fig9AAER: P2 is a target for late P0 and then an origin for P1. With
// A_A_E_R, P2's access epoch progresses past its still-active exposure, so
// P1 avoids the transitive delay.
func Fig9AAER(iters int) *stats.Table {
	return flagFigure("Fig 9: out-of-order GATS epochs with A_A_E_R", []string{"target P1", "P2 cumulative"}, func(on bool) []float64 {
		var p1S, cumS []sim.Time
		runWorld(3, Config(), func(r *mpi.Rank, rt *core.Runtime) {
			win := rt.CreateWindow(r, BigMsg, core.WinOptions{Mode: core.ModeNew, ShapeOnly: true, Info: core.Info{AAER: on}})
			for it := 0; it < iters; it++ {
				r.Barrier()
				t0 := r.Now()
				switch r.ID {
				case 0: // late origin toward P2
					r.Compute(Delay)
					win.IStart([]int{2})
					win.Put(2, 0, nil, BigMsg)
					r.Wait(win.IComplete())
				case 1: // final target
					win.Post([]int{2})
					win.WaitEpoch()
					p1S = append(p1S, r.Now()-t0)
				case 2: // target first, then origin
					win.IPost([]int{0})
					rq1 := win.IWait()
					win.IStart([]int{1})
					win.Put(1, 0, nil, BigMsg)
					rq2 := win.IComplete()
					r.Wait(rq1, rq2)
					cumS = append(cumS, r.Now()-t0)
				}
			}
			win.Quiesce()
		})
		return []float64{mean(p1S), mean(cumS)}
	})
}

// Fig10EAER: a target exposes to late O0 and then to O1. With E_A_E_R the
// second exposure progresses out of order, so O1 avoids O0's delay.
func Fig10EAER(iters int) *stats.Table {
	return flagFigure("Fig 10: out-of-order exposure epochs with E_A_E_R", []string{"origin O1", "target cumulative"}, func(on bool) []float64 {
		var o1S, cumS []sim.Time
		runWorld(3, Config(), func(r *mpi.Rank, rt *core.Runtime) {
			win := rt.CreateWindow(r, BigMsg, core.WinOptions{Mode: core.ModeNew, ShapeOnly: true, Info: core.Info{EAER: on}})
			for it := 0; it < iters; it++ {
				r.Barrier()
				t0 := r.Now()
				switch r.ID {
				case 0: // target with two exposures
					win.IPost([]int{1})
					rq1 := win.IWait()
					win.IPost([]int{2})
					rq2 := win.IWait()
					r.Wait(rq1, rq2)
					cumS = append(cumS, r.Now()-t0)
				case 1: // O0, late
					r.Compute(Delay)
					win.IStart([]int{0})
					win.Put(0, 0, nil, BigMsg)
					r.Wait(win.IComplete())
				case 2: // O1
					win.IStart([]int{0})
					win.Put(0, 0, nil, BigMsg)
					r.Wait(win.IComplete())
					o1S = append(o1S, r.Now()-t0)
				}
			}
			win.Quiesce()
		})
		return []float64{mean(o1S), mean(cumS)}
	})
}

// Fig11EAAR: P2 is an origin toward late P0 and then a target for P1. With
// E_A_A_R, P2's exposure progresses past its still-active access epoch.
func Fig11EAAR(iters int) *stats.Table {
	return flagFigure("Fig 11: out-of-order GATS epochs with E_A_A_R", []string{"origin P1", "P2 cumulative"}, func(on bool) []float64 {
		var p1S, cumS []sim.Time
		runWorld(3, Config(), func(r *mpi.Rank, rt *core.Runtime) {
			win := rt.CreateWindow(r, BigMsg, core.WinOptions{Mode: core.ModeNew, ShapeOnly: true, Info: core.Info{EAAR: on}})
			for it := 0; it < iters; it++ {
				r.Barrier()
				t0 := r.Now()
				switch r.ID {
				case 0: // late target of P2's access epoch
					r.Compute(Delay)
					win.Post([]int{2})
					win.WaitEpoch()
				case 1: // origin toward P2
					win.IStart([]int{2})
					win.Put(2, 0, nil, BigMsg)
					r.Wait(win.IComplete())
					p1S = append(p1S, r.Now()-t0)
				case 2: // origin first, then target
					win.IStart([]int{0})
					win.Put(0, 0, nil, BigMsg)
					rq1 := win.IComplete()
					win.IPost([]int{1})
					rq2 := win.IWait()
					r.Wait(rq1, rq2)
					cumS = append(cumS, r.Now()-t0)
				}
			}
			win.Quiesce()
		})
		return []float64{mean(p1S), mean(cumS)}
	})
}
