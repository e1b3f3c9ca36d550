package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestPatternTaskParity pins the two execution forms of the pattern program
// against each other, as TestAppTaskParity does the applications': every
// pattern cell, stepped as task ranks or run inline by goroutine ranks, gives
// the same samples, every rank's MPI time, window and reliability counters,
// and the same number of simulation events — and one cell does on a 2-shard
// world.
func TestPatternTaskParity(t *testing.T) {
	const iters = 3
	type cell struct {
		name string
		pt   pattern
	}
	var cells []cell
	add := func(pt pattern, format string, args ...any) {
		cells = append(cells, cell{fmt.Sprintf(format, args...), pt})
	}
	for si, s := range AllSeries {
		add(fig2Series(s, iters), "fig2/%s", s)
		add(lateComplete(s, iters, 64<<10, core.WinOptions{}, triggeredOpsLag), "lateComplete/%s", s)
		add(fig4Series(s, iters, 256<<10), "fig4/%s", s)
		add(fig5Series(s, iters, 4<<10), "fig5/%s", s)
		for shape, name := range []string{"GATS", "fence", "lock", "lock acc"} {
			add(runShape(s, epochShape(shape), iters, 4<<10, 50*sim.Microsecond), "shape %s/%s", name, s)
		}
		add(faultSweepCell(5e-2, s, 3, si, iters), "faultSweep/%s", s)
	}
	for _, s := range ScaleSeries {
		add(lateUnlock(s, iters), "lateUnlock/%s", s)
	}
	for i, b := range []flagBench{fig7, fig8, fig9, fig10, fig11} {
		add(b.pattern(false, iters), "fig%d/%s", i+7, flagOff)
		add(b.pattern(true, iters), "fig%d/%s", i+7, flagOn)
	}
	add(signalCell(64<<10, core.TransportSignal, 2, iters), "signal/2 rails")

	observe := func(pt pattern, tasks bool) formObservation {
		run := pt.run(tasks)
		return observeForm(run.Samples, run)
	}
	same := func(t *testing.T, pt pattern) {
		t.Helper()
		task, proc := observe(pt, true), observe(pt, false)
		if !reflect.DeepEqual(task, proc) {
			t.Fatalf("task/goroutine divergence:\n task      %+v\n goroutine %+v", task, proc)
		}
		if task.inMPI[0] == 0 {
			t.Fatal("rank 0 reports no MPI time")
		}
		if pt.faults != nil && !strings.Contains(task.ctrs[0], "fabric.retransmits=") {
			t.Fatal("the lossy cell retransmitted nothing")
		}
	}
	t.Run("sharded", func(t *testing.T) {
		defer SetShards(0)
		SetShards(2)
		same(t, fig2Series(SeriesNewNB, iters))
	})
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			same(t, c.pt)
		})
	}
}

// TestPatternAllocationBudget pins the heap objects a task rank costs per
// pass of three pattern cells, measured like TestScaleTaskAllocationBudget:
// a 2N-pass run minus an N-pass run cancels the world. Each budget sits one
// object per rank-pass above today's reading (3.00, 0.00, 0.00: Fig 2's
// two-sided requests and completion-hook slot — epochs and ops recycle
// through their window and closing requests live in their epochs), so an
// allocation in every rank's pass — a call that allocates its resume state
// — fails here, not only in the macro benchmark's patterns workload.
func TestPatternAllocationBudget(t *testing.T) {
	const iters = 8
	for _, c := range []struct {
		name   string
		pt     func(iters int) pattern
		budget float64
	}{
		{"fig2 NB", func(n int) pattern { return fig2Series(SeriesNewNB, n) }, 4.00},
		{"fig5 NB", func(n int) pattern { return fig5Series(SeriesNewNB, n, 4<<10) }, 1.00},
		{"late unlock NB", func(n int) pattern { return lateUnlock(SeriesNewNB, n) }, 1.00},
	} {
		mallocs := func(iters int) uint64 {
			pt := c.pt(iters)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pt.run(true)
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		mallocs(iters) // warm-up: pools
		m1, m2 := mallocs(iters), mallocs(2*iters)
		ranks := len(c.pt(1).lists)
		got := (float64(m2) - float64(m1)) / float64(ranks*iters)
		t.Logf("%-16s %6.2f objects per rank-pass (budget %.2f)", c.name, got, c.budget)
		if got > c.budget {
			t.Errorf("%s: %.2f heap objects per rank-pass, budget %.2f", c.name, got, c.budget)
		}
	}
}
