package sim

import "testing"

// Pins for Signal's slice reuse: Fire empties the waiters slice in place,
// and a waiter that re-waits (or fires the signal again) from inside its
// wake path must never land on the batch still being drained. Fire never
// runs waiters inline (wakes go through the event queue), so by the time
// any woken proc runs, Fire's drain loop has completed; these tests pin
// that structure.

// TestSignalRewaitFromWakePath wakes two procs that immediately re-wait and
// re-fire: the re-registered waiters must not alias the drained batch, and
// every proc must observe every fire.
func TestSignalRewaitFromWakePath(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k)
	const procs, rounds = 4, 8
	counts := make([]int, procs)
	for i := 0; i < procs; i++ {
		i := i
		k.Spawn("waiter", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				sig.Wait(p, "round")
				counts[i]++
				// Re-fire from inside the wake path: procs that were in
				// the same drained batch must not be woken twice, procs
				// already re-waiting must be.
				sig.Fire()
			}
		})
	}
	k.Spawn("firer", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			p.Sleep(10)
			sig.Fire()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != rounds {
			t.Fatalf("proc %d observed %d wakes, want %d", i, c, rounds)
		}
	}
}

// TestSignalFireDuringDrainNoAlias pins the aliasing hazard directly: a
// task proc woken by Fire immediately re-waits and fires again during its
// step. If the reused waiters slice were appended to while drained, the
// second fire would corrupt the first batch's iteration and some waiter
// would be lost or woken twice.
func TestSignalFireDuringDrainNoAlias(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k)
	wakes := 0
	// The partner is spawned first so it wakes (and re-waits) before the
	// rewaiter's step runs: the rewaiter's inner Fire then drains a
	// non-empty waiters slice that was emptied moments earlier.
	k.Spawn("partner", func(p *Proc) {
		for r := 0; r < 6; r++ {
			sig.Wait(p, "partner")
		}
	})
	k.SpawnTask("rewaiter", &rewaitTask{sig: sig, rounds: 6, onWake: func() { wakes++ }})
	k.Spawn("firer", func(p *Proc) {
		for r := 0; r < 6; r++ {
			p.Sleep(5)
			sig.Fire()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 6 {
		t.Fatalf("rewaiter observed %d wakes, want 6", wakes)
	}
}

type rewaitTask struct {
	sig    *Signal
	rounds int
	seen   int
	onWake func()
	woken  bool
}

func (t *rewaitTask) Step(p *Proc) {
	if t.woken {
		t.seen++
		t.onWake()
		t.sig.Fire() // fire right after the batch was drained
		if t.seen >= t.rounds {
			p.TaskExit()
			return
		}
	}
	t.woken = true
	t.sig.Wait(p, "rewait")
}

// TestSignalSteadyStateAllocs pins zero allocations for steady-state
// wait/fire cycles once the waiters slice has warmed up.
func TestSignalSteadyStateAllocs(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k)
	done := false
	k.Spawn("waiter", func(p *Proc) {
		for !done {
			sig.Wait(p, "loop")
		}
	})
	// Warm up: heap backing array, waiter slices, the proc's coroutine.
	pump := func() {
		for i := 0; i < 64; i++ {
			sig.Fire()
			if err := k.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	pump()
	allocs := testing.AllocsPerRun(200, pump)
	if allocs != 0 {
		t.Errorf("wait/fire: %.1f allocs/run, want 0", allocs)
	}
	done = true
	sig.Fire()
	if err := k.Drain(); err != nil {
		t.Fatal(err)
	}
}
