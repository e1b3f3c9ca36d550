package bench

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/par"
	"repro/internal/prog"
	"repro/internal/sim"
)

// TestScaleFigureShape pins the scaling figure's qualitative claim on the
// real sweep (64-512 ranks on the fixed-core fat-tree): the blocking
// series degrade as ranks are added, the nonblocking series stays near the
// compute bound, and the congestion counters attribute the gap.
func TestScaleFigureShape(t *testing.T) {
	rep := FigScale(3)
	first := rows(rep)[0]
	last := rows(rep)[len(rows(rep))-1]

	for _, s := range []Series{SeriesMVAPICH, SeriesNew} {
		lo, hi := rep.Latency.Get(first, s.String()), rep.Latency.Get(last, s.String())
		if hi-lo < 20 { // us; the probe shows ~70us of degradation
			t.Errorf("%s: blocking latency grew only %.1f -> %.1f us from %s to %s ranks; congestion is not biting",
				s, lo, hi, first, last)
		}
	}
	nbLo := rep.Latency.Get(first, SeriesNewNB.String())
	nbHi := rep.Latency.Get(last, SeriesNewNB.String())
	if nbHi-nbLo > 10 { // us; stays within call-overhead growth of flat
		t.Errorf("nonblocking latency grew %.1f -> %.1f us across the sweep; overlap is not hiding the congestion",
			nbLo, nbHi)
	}
	for _, row := range rows(rep) {
		nb := rep.Latency.Get(row, SeriesNewNB.String())
		for _, s := range []Series{SeriesMVAPICH, SeriesNew} {
			if bl := rep.Latency.Get(row, s.String()); nb >= bl {
				t.Errorf("%s ranks: nonblocking (%.1f us) not below blocking %s (%.1f us)", row, nb, s, bl)
			}
		}
	}
	// Attribution: the fabric must actually be congested, increasingly so.
	for _, s := range AllSeries {
		qLo, qHi := rep.Queued.Get(first, s.String()), rep.Queued.Get(last, s.String())
		if qLo <= 0 || qHi <= qLo {
			t.Errorf("%s: link-queue time did not climb with ranks (%.1f -> %.1f us)", s, qLo, qHi)
		}
		if st := rep.Stalls.Get(last, s.String()); st <= 0 {
			t.Errorf("%s: no credit stalls at %s ranks despite 8:1 oversubscription", s, last)
		}
	}
}

func rows(rep *ScaleReport) []string { return rep.Latency.Rows }

// TestScaleDeterminismAcrossWorkers renders the full figure serially and
// with four workers; the tables must match bit for bit (each cell is an
// independent simulation, order restored by index).
func TestScaleDeterminismAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(1)
	serial := FigScale(2).String()
	par.SetWorkers(4)
	parallel := FigScale(2).String()
	if serial != parallel {
		t.Fatalf("scale figure differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestScaleTaskParity pins the two execution forms of the one scale program
// against each other: stepped as task ranks or run inline by goroutine
// ranks, every series produces the same per-rank samples, the same MPI time
// and window counters on every rank, the same congestion summary and the
// same number of simulation events.
func TestScaleTaskParity(t *testing.T) {
	const n, iters = 64, 3
	type observed struct {
		samples [][]sim.Time
		inMPI   []sim.Time
		ctrs    []string // every row of the world's counters, the topology engine's included
		events  uint64
	}
	observe := func(s Series, tasks bool) observed {
		run := scaleCellMode(n, s, iters, tasks)
		o := observed{samples: run.Samples, events: run.World.Events()}
		for i := range run.Wins {
			o.inMPI = append(o.inMPI, run.World.Rank(i).TimeInMPI)
		}
		for row := 0; row <= n; row++ {
			o.ctrs = append(o.ctrs, run.World.Net.Counters.Snapshot(row))
		}
		return o
	}
	for _, s := range ScaleSeries {
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			task, proc := observe(s, true), observe(s, false)
			if !reflect.DeepEqual(task, proc) {
				t.Fatalf("task/goroutine divergence for %s:\n task      %+v\n goroutine %+v", s, task, proc)
			}
			if task.inMPI[0] == 0 {
				t.Fatalf("%s: rank 0 reports no MPI time", s)
			}
		})
	}
}

// formObservation is what the parity tests require to be identical between
// the two execution forms of one program: the cell's reading, every rank's
// MPI time and counters, and the number of simulation events.
type formObservation struct {
	result any
	inMPI  []sim.Time
	ctrs   []string
	events uint64
}

func observeForm(result any, run *prog.Run) formObservation {
	o := formObservation{result: result, events: run.World.Events()}
	for i := range run.Wins {
		o.inMPI = append(o.inMPI, run.World.Rank(i).TimeInMPI)
		o.ctrs = append(o.ctrs, run.World.Net.Counters.Snapshot(i))
	}
	return o
}

// TestAppTaskParity pins the two execution forms of the application
// programs against each other, as TestScaleTaskParity does the scale
// program's: every transaction series at 16 ranks and every LU series at 8,
// stepped as task ranks or run inline by goroutine ranks, and one cell of
// each on a 2-shard world.
func TestAppTaskParity(t *testing.T) {
	txnP := TxnParams{EpochsPerRank: 12, PipelineDepth: 4, Seed: 7}
	luP := LUParams{M: 64, FlopNs: 20}
	txn := func(s TxnSeries, tasks bool) formObservation {
		run := txnCell(16, Config(), s, txnP, tasks)
		return observeForm(run.throughput(), run.Run)
	}
	lu := func(s Series, tasks bool) formObservation {
		run := luCell(8, s, luP, tasks)
		return observeForm(run.result(), run.Run)
	}
	same := func(t *testing.T, task, proc formObservation) {
		t.Helper()
		if !reflect.DeepEqual(task, proc) {
			t.Fatalf("task/goroutine divergence:\n task      %+v\n goroutine %+v", task, proc)
		}
		if task.inMPI[0] == 0 {
			t.Fatal("rank 0 reports no MPI time")
		}
	}
	t.Run("sharded", func(t *testing.T) {
		defer SetShards(0)
		SetShards(2)
		same(t, txn(TxnMVAPICH, true), txn(TxnMVAPICH, false))
		same(t, lu(SeriesNewNB, true), lu(SeriesNewNB, false))
	})
	for _, s := range AllTxnSeries {
		t.Run("txn/"+s.String(), func(t *testing.T) {
			t.Parallel()
			same(t, txn(s, true), txn(s, false))
		})
	}
	for _, s := range AllSeries {
		t.Run("lu/"+s.String(), func(t *testing.T) {
			t.Parallel()
			same(t, lu(s, true), lu(s, false))
		})
	}
}

// TestScaleTaskAllocationBudget pins the heap objects a task rank costs per
// iteration of the scale cell, per series, measured like core's epoch
// budgets: a 2N-iteration run minus an N-iteration run cancels the world.
// Each budget sits one object above the reading it was set at (0.01, 0.11,
// 0.19, 1.07: epochs, their multi-peer slot tables and ops recycle through
// their window, closing requests live in their epochs, and the flush series
// pays for its flush request), so a call that allocates its resume state —
// one object per call is +15 per rank-iteration — fails here, not only in
// the macro benchmark's scale512 workload.
func TestScaleTaskAllocationBudget(t *testing.T) {
	const n, iters = 64, 4
	budgets := map[Series]float64{SeriesMVAPICH: 1.01, SeriesNew: 1.11, SeriesNewNB: 1.19, SeriesFlush: 2.07}
	for _, s := range ScaleSeries {
		mallocs := func(iters int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			scaleCell(n, s, iters)
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		mallocs(iters) // warm-up: pools
		m1, m2 := mallocs(iters), mallocs(2*iters)
		got := (float64(m2) - float64(m1)) / (n * iters)
		t.Logf("%-16s %6.2f objects per rank-iteration (budget %.2f)", s, got, budgets[s])
		if got > budgets[s] {
			t.Errorf("%s: %.2f heap objects per rank-iteration, budget %.2f", s, got, budgets[s])
		}
	}
}

// TestScaleBytesPerRank budgets the heap a task rank retains after a run of
// the New-nonblocking scale cell — the world, runtime, windows, per-peer
// tables and parked task state — as a HeapAlloc delta between two forced GCs
// with the run kept alive across the second. Every row is above peertab's
// 64-rank small world, so each window's and NIC rail's table holds only the
// 2·log2(n) − 1 dissemination partners a rank addresses (512 ranks read
// 11 074 B/rank, 1 024 read 11 740, 4 096 read 10 925): a table that
// pre-pays for peers the rank never addresses would cost n entries a rank.
func TestScaleBytesPerRank(t *testing.T) {
	for _, c := range []struct {
		ranks  int
		budget float64
	}{{512, 12288}, {1024, 12288}, {4096, 12288}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run := scaleCellMode(c.ranks, SeriesNewNB, 1, true)
		runtime.GC()
		runtime.ReadMemStats(&after)
		got := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(c.ranks)
		runtime.KeepAlive(run)
		t.Logf("%d ranks: %.0f bytes/rank (budget %.0f)", c.ranks, got, c.budget)
		if got > c.budget {
			t.Errorf("%d ranks retain %.0f heap bytes per rank, budget %.0f", c.ranks, got, c.budget)
		}
	}
}
