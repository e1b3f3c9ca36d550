package bench

import (
	"repro/internal/core"
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

// flagBench is one flag benchmark: the flag it turns on, and every rank's
// calls (the samples are the figure's rows, in slot order).
type flagBench struct {
	flag  core.Info
	lists [][]op
}

// figure measures the benchmark with the flag off and on — two independent
// simulations, one per column.
func (b flagBench) figure(title string, rows []string, iters int) *stats.Table {
	return gridColumns(title, "us", "measure", rows, []string{flagOff, flagOn},
		func(col int) []float64 { return b.pattern(col == 1, iters).measure() })
}

func (b flagBench) pattern(on bool, iters int) pattern {
	pt := pattern{opt: core.WinOptions{Mode: core.ModeNew}, iters: iters, lists: b.lists}
	if on {
		pt.opt.Info = b.flag
	}
	return pt
}

// Fig7AAARGats: single origin, two targets; T0's exposure is 1000 us late.
// With A_A_A_R the second access epoch progresses out of order, so T1 does
// not inherit T0's delay and the origin overlaps the delay with its second
// epoch.
func Fig7AAARGats(iters int) *stats.Table {
	return fig7.figure("Fig 7: out-of-order GATS access epochs with A_A_A_R", []string{"target T1", "origin cumulative"}, iters)
}

var fig7 = flagBench{core.Info{AAAR: true}, [][]op{
	{barrier, stamp, istart(1), put(1, BigMsg), icomplete, istart(2), put(2, BigMsg), icomplete, wait, sample(1)}, // origin: two back-to-back access epochs
	{barrier, compute(Delay), post(0), waitEpoch},                                                                 // T0, late
	{barrier, stamp, post(0), waitEpoch, sample(0)},                                                               // T1
}}

// Fig8AAARLock: O1 queues behind O0 on T0's exclusive lock, then locks T1.
// With A_A_A_R, O1's second epoch completes while the first is still
// waiting for O0's 1000 us of in-epoch work.
func Fig8AAARLock(iters int) *stats.Table {
	return fig8.figure("Fig 8: out-of-order lock epochs with A_A_A_R", []string{"O1 cumulative"}, iters)
}

var fig8 = flagBench{core.Info{AAAR: true}, [][]op{
	{barrier, ilock(2, true), put(2, BigMsg), compute(Delay), iunlock(2), wait, barrier}, // O0: holds T0's lock through 1000 us of work
	{barrier, compute(50 * sim.Microsecond), stamp, ilock(2, true), put(2, BigMsg), iunlock(2), // O1: lock T0 (queued), then lock T1
		ilock(3, true), put(3, BigMsg), iunlock(3), wait, sample(0), barrier},
	{barrier, barrier},
	{barrier, barrier},
}}

// Fig9AAER: P2 is a target for late P0 and then an origin for P1. With
// A_A_E_R, P2's access epoch progresses past its still-active exposure, so
// P1 avoids the transitive delay.
func Fig9AAER(iters int) *stats.Table {
	return fig9.figure("Fig 9: out-of-order GATS epochs with A_A_E_R", []string{"target P1", "P2 cumulative"}, iters)
}

var fig9 = flagBench{core.Info{AAER: true}, [][]op{
	{barrier, compute(Delay), istart(2), put(2, BigMsg), icomplete, wait},                    // late origin toward P2
	{barrier, stamp, post(2), waitEpoch, sample(0)},                                          // final target
	{barrier, stamp, ipost(0), iwait, istart(1), put(1, BigMsg), icomplete, wait, sample(1)}, // target first, then origin
}}

// Fig10EAER: a target exposes to late O0 and then to O1. With E_A_E_R the
// second exposure progresses out of order, so O1 avoids O0's delay.
func Fig10EAER(iters int) *stats.Table {
	return fig10.figure("Fig 10: out-of-order exposure epochs with E_A_E_R", []string{"origin O1", "target cumulative"}, iters)
}

var fig10 = flagBench{core.Info{EAER: true}, [][]op{
	{barrier, stamp, ipost(1), iwait, ipost(2), iwait, wait, sample(1)},     // target with two exposures
	{barrier, compute(Delay), istart(0), put(0, BigMsg), icomplete, wait},   // O0, late
	{barrier, stamp, istart(0), put(0, BigMsg), icomplete, wait, sample(0)}, // O1
}}

// Fig11EAAR: P2 is an origin toward late P0 and then a target for P1. With
// E_A_A_R, P2's exposure progresses past its still-active access epoch.
func Fig11EAAR(iters int) *stats.Table {
	return fig11.figure("Fig 11: out-of-order GATS epochs with E_A_A_R", []string{"origin P1", "P2 cumulative"}, iters)
}

var fig11 = flagBench{core.Info{EAAR: true}, [][]op{
	{barrier, compute(Delay), post(2), waitEpoch},                                            // late target of P2's access epoch
	{barrier, stamp, istart(2), put(2, BigMsg), icomplete, wait, sample(0)},                  // origin toward P2
	{barrier, stamp, istart(0), put(0, BigMsg), icomplete, ipost(1), iwait, wait, sample(1)}, // origin first, then target
}}
