package bench

import (
	"slices"

	"repro/internal/core"
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
		func(i int) []float64 { return fig2Series(AllSeries[i], iters).measure() })
}

// fig2Series is one series' cell: its origin samples the access-epoch,
// two-sided and cumulative completion times.
func fig2Series(s Series, iters int) pattern {
	origin := []op{barrier, stamp, start(0), put(0, BigMsg), complete, sample(0), send(1, BigMsg), sample(1), sample(2)}
	if s.Nonblocking() { // the access epoch completes during the send
		origin = []op{barrier, stamp, istart(0), put(0, BigMsg), icomplete, stampDone,
			send(1, BigMsg), sample(1), wait, sampleDone, sample(2)}
	}
	return pattern{opt: core.WinOptions{Mode: s.Mode()}, iters: iters, lists: [][]op{
		{barrier, compute(Delay), post(2), waitEpoch}, // late target
		{barrier, recv(2)},                            // two-sided peer
		origin,
	}}
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
			return lateComplete(AllSeries[si], iters, sizes[zi], core.WinOptions{}, 0).measure()[0]
		})
}

// lateComplete is the Late Complete cell (Fig 3 and the triggered-ops
// ablation): per iteration, the target's epoch completion time relative to
// the barrier. opt adds window options on top of the series' mode. targetLag
// stages the target's Post that long after the barrier, so its grant reaches
// the origin after the origin's put was recorded (0: no staging).
func lateComplete(s Series, iters int, size int64, opt core.WinOptions, targetLag sim.Time) pattern {
	opt.Mode = s.Mode()
	origin := []op{barrier, start(1), put(1, size), compute(Delay), complete} // in-epoch overlap (scenario 3) -> Late Complete
	if s.Nonblocking() {
		origin = []op{barrier, istart(1), put(1, size), icomplete, compute(Delay), wait}
	}
	return pattern{opt: opt, iters: iters, lists: [][]op{
		origin,
		{barrier, stamp, compute(targetLag), post(0), waitEpoch, sample(0)}, // target
	}}
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
		func(zi, si int) float64 { return fig4Series(AllSeries[si], iters, sizes[zi]).measure()[0] })
}

func fig4Series(s Series, iters int, size int64) pattern {
	lists := [][]op{
		{barrier, fence(core.AssertNone), put(1, size), fence(core.AssertNoSucceed)},
		{barrier, stamp, fence(core.AssertNone), fence(core.AssertNoSucceed), compute(Delay), sample(0)}, // work serialized after the blocking fence
	}
	if s.Nonblocking() {
		lists = [][]op{
			{barrier, ifence(core.AssertNone), put(1, size), ifence(core.AssertNoSucceed), wait},
			{barrier, stamp, ifence(core.AssertNone), ifence(core.AssertNoSucceed), compute(Delay), wait, sample(0)}, // work overlaps the epoch's transfers
		}
	}
	return pattern{opt: core.WinOptions{Mode: s.Mode()}, iters: iters, lists: lists}
}

// Fig5WaitAtFence reproduces Fig 5: the origin delays its closing fence by
// 1000 us of work; the target fences immediately and its epoch length is
// reported. With nonblocking fences the origin issues its closing IFence
// before the work, so no delay propagates.
func Fig5WaitAtFence(iters int, sizes []int64) *stats.Table {
	return grid("Fig 5: Wait at Fence - target-side epoch length", "us", "size",
		labels(sizes, sizeLabel), labels(AllSeries, Series.String),
		func(zi, si int) float64 { return fig5Series(AllSeries[si], iters, sizes[zi]).measure()[0] })
}

func fig5Series(s Series, iters int, size int64) pattern {
	lists := [][]op{
		{barrier, fence(core.AssertNone), put(1, size), compute(Delay), fence(core.AssertNoSucceed)}, // origin: work, then the late closing fence
		{barrier, stamp, fence(core.AssertNone), fence(core.AssertNoSucceed), sample(0)},
	}
	if s.Nonblocking() {
		lists = [][]op{
			{barrier, ifence(core.AssertNone), put(1, size), ifence(core.AssertNoSucceed), compute(Delay), wait}, // origin: close early, then work
			{barrier, stamp, ifence(core.AssertNone), ifence(core.AssertNoSucceed), wait, sample(0)},
		}
	}
	return pattern{opt: core.WinOptions{Mode: s.Mode()}, iters: iters, lists: lists}
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
		func(i int) []float64 { return lateUnlock(series[i], iters).measure() })
}

// lateUnlock is the Late Unlock cell: two origins run an exclusive critical
// section on rank 0 — a 1 MB put, plus 1000 us of work for the first — and
// sample its latency.
func lateUnlock(s Series, iters int) pattern {
	section := func(work sim.Time, slot int) []op {
		if !s.Nonblocking() && s != SeriesFlush {
			return []op{stamp, lock(0, true), put(0, BigMsg), compute(work), unlock(0), sample(slot), barrier}
		}
		// Close early: the release follows the data, not the work. Flush
		// acquires by the foMPI protocol (there is no deferred lock to
		// open), and its unlock's release atomics are chained behind an
		// internal flush.
		acquire := ilock(0, true)
		if s == SeriesFlush {
			acquire = lock(0, true)
		}
		return []op{stamp, acquire, put(0, BigMsg), iunlock(0), compute(work), wait, sample(slot), barrier}
	}
	return pattern{opt: core.WinOptions{Mode: s.Mode()}, iters: iters, lists: [][]op{
		{barrier, barrier},
		slices.Concat([]op{barrier}, section(Delay, 0)),                            // O0: locks first, works 1000 us in the critical section
		slices.Concat([]op{barrier, compute(50 * sim.Microsecond)}, section(0, 1)), // O1: requests the same lock shortly after O0
	}}
}
