package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// A livelock — two procs waking each other at the same virtual instant
// forever — never drains the event queue, so without the watchdog Run would
// spin forever. The event budget must convert it into an error.
func TestWatchdogEventBudgetCatchesLivelock(t *testing.T) {
	k := NewKernel()
	k.SetWatchdog(10000, 0)
	a := NewSignal(k)
	b := NewSignal(k)
	k.Spawn("ping", func(p *Proc) {
		for {
			a.Fire()
			b.Wait(p, "pong-turn")
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for {
			b.Fire()
			a.Wait(p, "ping-turn")
		}
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("want watchdog error, got %v", err)
	}
	if !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("event-budget error should mention livelock: %v", err)
	}
	if !strings.Contains(err.Error(), "ping") || !strings.Contains(err.Error(), "pong") {
		t.Fatalf("report should list the blocked procs: %v", err)
	}
}

func TestWatchdogTimeHorizon(t *testing.T) {
	k := NewKernel()
	k.SetWatchdog(0, 100)
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(60)
		}
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("want horizon error, got %v", err)
	}
}

func TestWatchdogBudgetsAllowHealthyRuns(t *testing.T) {
	k := NewKernel()
	k.SetWatchdog(1000, 1000)
	done := false
	k.Spawn("ok", func(p *Proc) {
		p.Sleep(10)
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("body did not run")
	}
}

// A deadlock report names the blocking call site of each parked proc (a
// frame outside internal/sim, i.e. this test file).
func TestDeadlockReportNamesCallSite(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	k.Spawn("stuck", func(p *Proc) {
		s.Wait(p, "never-fired")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "watchdog_test.go") {
		t.Fatalf("report should include the blocking call site: %v", err)
	}
}

// A watchdog that fires while the only proc is parked in its Sleep names
// that proc's own call site: the report resumes the parked body once, and
// the body formats its own stack.
func TestWatchdogReportNamesDriverSite(t *testing.T) {
	k := NewKernel()
	k.SetWatchdog(0, 50)
	var line int
	k.Spawn("spinner", func(p *Proc) {
		for {
			_, _, line, _ = runtime.Caller(0)
			p.Sleep(7)
		}
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("want horizon error, got %v", err)
	}
	want := fmt.Sprintf(`spinner: waiting on "sleep" at internal/sim/watchdog_test.go:%d`, line+1)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("report should contain %q: %v", want, err)
	}
}

// Diag providers contribute per-proc state to the report.
func TestDeadlockReportIncludesDiagProviders(t *testing.T) {
	k := NewKernel()
	k.AddDiagProvider(func(p *Proc) string {
		if p.Name() == "stuck" {
			return "epoch state: 1 pending"
		}
		return ""
	})
	s := NewSignal(k)
	k.Spawn("stuck", func(p *Proc) { s.Wait(p, "grant") })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "epoch state: 1 pending") {
		t.Fatalf("report should include diag provider output: %v", err)
	}
}
