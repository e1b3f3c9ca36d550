// Benchmarks regenerating every table and figure of the paper's evaluation
// section. Each benchmark runs the corresponding experiment end to end on
// the simulated cluster and reports the headline virtual-time metrics via
// b.ReportMetric (ns/op measures host cost of the simulation, not the
// experiment; the vt_* metrics are the paper-comparable numbers).
//
// Figs 12 and 13 run reduced parameters here so `go test -bench .` stays
// interactive; `epochbench -fig 12` and `-fig 13` regenerate the full-scale
// tables.
package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/par"
)

// benchIters is the per-measurement averaging used inside benchmarks (the
// simulator is deterministic; the paper used 100 iterations on hardware).
const benchIters = 3

func BenchmarkFig02LatePost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig2LatePost(benchIters)
		b.ReportMetric(t.Get("cumulative", "New nonblocking"), "vt_nb_cumulative_us")
		b.ReportMetric(t.Get("cumulative", "New"), "vt_blocking_cumulative_us")
	}
}

func BenchmarkFig03LateComplete(b *testing.B) {
	sizes := []int64{4, 64 << 10, 1 << 20}
	for i := 0; i < b.N; i++ {
		t := bench.Fig3LateComplete(benchIters, sizes)
		b.ReportMetric(t.Get("1MB", "New nonblocking"), "vt_nb_target_epoch_us")
		b.ReportMetric(t.Get("1MB", "New"), "vt_blocking_target_epoch_us")
	}
}

func BenchmarkFig04EarlyFence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig4EarlyFence(benchIters)
		b.ReportMetric(t.Get("1MB", "New nonblocking"), "vt_nb_cumulative_us")
		b.ReportMetric(t.Get("1MB", "New"), "vt_blocking_cumulative_us")
	}
}

func BenchmarkFig05WaitAtFence(b *testing.B) {
	sizes := []int64{4, 64 << 10, 1 << 20}
	for i := 0; i < b.N; i++ {
		t := bench.Fig5WaitAtFence(benchIters, sizes)
		b.ReportMetric(t.Get("1MB", "New nonblocking"), "vt_nb_target_epoch_us")
		b.ReportMetric(t.Get("1MB", "MVAPICH"), "vt_mvapich_target_epoch_us")
	}
}

func BenchmarkFig06LateUnlock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig6LateUnlock(benchIters)
		b.ReportMetric(t.Get("second lock (O1)", "New nonblocking"), "vt_nb_second_lock_us")
		b.ReportMetric(t.Get("second lock (O1)", "New"), "vt_blocking_second_lock_us")
	}
}

func BenchmarkFig07AAARGats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig7AAARGats(benchIters)
		b.ReportMetric(t.Get("target T1", "flag on"), "vt_t1_flag_on_us")
		b.ReportMetric(t.Get("target T1", "flag off"), "vt_t1_flag_off_us")
	}
}

func BenchmarkFig08AAARLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig8AAARLock(benchIters)
		b.ReportMetric(t.Get("O1 cumulative", "flag on"), "vt_flag_on_us")
		b.ReportMetric(t.Get("O1 cumulative", "flag off"), "vt_flag_off_us")
	}
}

func BenchmarkFig09AAER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig9AAER(benchIters)
		b.ReportMetric(t.Get("target P1", "flag on"), "vt_p1_flag_on_us")
		b.ReportMetric(t.Get("target P1", "flag off"), "vt_p1_flag_off_us")
	}
}

func BenchmarkFig10EAER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig10EAER(benchIters)
		b.ReportMetric(t.Get("origin O1", "flag on"), "vt_o1_flag_on_us")
		b.ReportMetric(t.Get("origin O1", "flag off"), "vt_o1_flag_off_us")
	}
}

func BenchmarkFig11EAAR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig11EAAR(benchIters)
		b.ReportMetric(t.Get("origin P1", "flag on"), "vt_p1_flag_on_us")
		b.ReportMetric(t.Get("origin P1", "flag off"), "vt_p1_flag_off_us")
	}
}

func BenchmarkFig12Transactions(b *testing.B) {
	p := bench.DefaultTxnParams()
	p.EpochsPerRank = 32
	n := 64
	if testing.Short() {
		n = 16
	}
	for i := 0; i < b.N; i++ {
		aaar := bench.RunTxn(n, bench.TxnNewNBAAAR, p)
		blocking := bench.RunTxn(n, bench.TxnNew, p)
		b.ReportMetric(aaar, "vt_aaar_ktps")
		b.ReportMetric(blocking, "vt_blocking_ktps")
	}
}

func BenchmarkFig13LU(b *testing.B) {
	m := 512
	n := 64
	if testing.Short() {
		m, n = 256, 16
	}
	p := bench.LUParams{M: m, FlopNs: 20}
	for i := 0; i < b.N; i++ {
		nb := bench.RunLU(n, bench.SeriesNewNB, p)
		bl := bench.RunLU(n, bench.SeriesNew, p)
		b.ReportMetric(nb.PerRankS*1000, "vt_nb_ms")
		b.ReportMetric(bl.PerRankS*1000, "vt_blocking_ms")
		b.ReportMetric(nb.CommPct, "vt_nb_comm_pct")
	}
}

func BenchmarkOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.OverlapTable(benchIters)
		b.ReportMetric(t.Get("lock put 1MB", "New"), "vt_new_lock_overlap_pct")
		b.ReportMetric(t.Get("lock put 1MB", "MVAPICH"), "vt_mvapich_lock_overlap_pct")
	}
}

func BenchmarkLatencyParity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.LatencyParity(benchIters, 1<<20)
		b.ReportMetric(t.Get("GATS", "New nonblocking"), "vt_nb_gats_us")
		b.ReportMetric(t.Get("GATS", "MVAPICH"), "vt_mvapich_gats_us")
	}
}

// regenSample is a fixed figure set used by the harness-speedup benchmarks
// below: the same simulations fan out over the worker pool (parallel) or
// run inline (serial), with byte-identical results either way.
func regenSample() {
	bench.Fig2LatePost(benchIters)
	bench.Fig6LateUnlock(benchIters)
	bench.Fig7AAARGats(benchIters)
}

func BenchmarkFigureRegenSerial(b *testing.B) {
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	for i := 0; i < b.N; i++ {
		regenSample()
	}
}

func BenchmarkFigureRegenParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		regenSample()
	}
}
