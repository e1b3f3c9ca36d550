package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.At(10, func() { got = append(got, 11) }) // same time: insertion order
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	k := NewKernel()
	var at10, at25 Time
	k.At(10, func() { at10 = k.Now() })
	k.At(25, func() { at25 = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at10 != 10 || at25 != 25 {
		t.Fatalf("clock saw %d and %d, want 10 and 25", at10, at25)
	}
	if k.Now() != 25 {
		t.Fatalf("final clock %d, want 25", k.Now())
	}
}

func TestSchedulingInPastFails(t *testing.T) {
	k := NewKernel()
	k.At(100, func() { k.At(50, func() {}) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "past") {
		t.Fatalf("want scheduling-in-the-past error, got %v", err)
	}
}

func TestProcSleepAndCompute(t *testing.T) {
	k := NewKernel()
	var wake, done Time
	k.Spawn("p", func(p *Proc) {
		p.Sleep(100)
		wake = p.now()
		p.Sleep(50)
		done = p.now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 100 || done != 150 {
		t.Fatalf("wake=%d done=%d, want 100 and 150", wake, done)
	}
}

func TestProcsInterleave(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a1")
		p.Sleep(20)
		trace = append(trace, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a0 b0 a1 b1 a2"
	if got := strings.Join(trace, " "); got != want {
		t.Fatalf("interleaving %q, want %q", got, want)
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	woke := 0
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			s.Wait(p, "test")
			woke++
		})
	}
	k.Spawn("firer", func(p *Proc) {
		p.Sleep(10)
		s.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Fatalf("woke %d waiters, want 3", woke)
	}
}

func TestSignalWaitForPreSatisfied(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	ran := false
	k.Spawn("p", func(p *Proc) {
		s.waitFor(p, "pre", func() bool { return true })
		ran = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("waitFor blocked on a pre-satisfied predicate")
	}
}

func TestSignalWaitForRechecks(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	x := 0
	var doneAt Time
	k.Spawn("waiter", func(p *Proc) {
		s.waitFor(p, "x==2", func() bool { return x == 2 })
		doneAt = p.now()
	})
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(10)
		x = 1
		s.Fire() // spurious with respect to the predicate
		p.Sleep(10)
		x = 2
		s.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 20 {
		t.Fatalf("waiter finished at %d, want 20", doneAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	k.Spawn("stuck", func(p *Proc) {
		s.Wait(p, "never-fired")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "never-fired") {
		t.Fatalf("deadlock error should name the wait tag: %v", err)
	}
}

func TestProcPanicCaptured(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) { panic("kaput") })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("want panic error, got %v", err)
	}
}

func TestKernelRunsOnce(t *testing.T) {
	k := NewKernel()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestSpawnAtFuture(t *testing.T) {
	k := NewKernel()
	var started Time
	k.SpawnTaskAt(500, "late", Body(func(p *Proc) { started = p.now() }))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 500 {
		t.Fatalf("proc started at %d, want 500", started)
	}
}

func TestYieldLetsSameTimeEventsRun(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("p", func(p *Proc) {
		k.At(k.Now(), func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "event,proc" {
		t.Fatalf("order %v, want event before proc", order)
	}
}

// TestDeterminism runs the same mixed workload twice and requires identical
// traces.
func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := NewKernel()
		rng := NewRNG(42)
		var trace []Time
		for i := 0; i < 4; i++ {
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Time(rng.Intn(100) + 1))
					trace = append(trace, p.now())
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: however events are inserted, they fire in nondecreasing time
// order; within one instant band 0 fires first, in insertion order, then
// band 1 in (owner, per-owner insertion) order. Each case queues 2 400 events
// up to 100 µs ahead — deep enough, and spread over enough 64 ns windows, for
// the queue's wheels, its heap and the merge between them all to take part —
// with every other time rounded so that instants collide.
func TestEventOrderProperty(t *testing.T) {
	const events, owners = 2400, 5
	f := func(seed uint64) bool {
		k := NewKernel()
		rng := NewRNG(seed)
		type rec struct {
			at                 Time
			band, owner, order int
		}
		var fired []rec
		var counts [owners + 1]int // per band-1 owner, and [owners] for band 0
		for i := 0; i < events; i++ {
			at := Time(rng.Intn(100_000))
			if i%2 == 0 {
				at -= at % 500
			}
			r := rec{at: at, owner: owners}
			if rng.Intn(3) == 0 {
				r.band, r.owner = 1, rng.Intn(owners)
			}
			r.order = counts[r.owner]
			counts[r.owner]++
			fire := func() { fired = append(fired, r) }
			if r.band == 0 {
				k.At(at, fire)
			} else {
				k.AtCross(at, func(any) { fire() }, nil, r.owner-1, 0)
			}
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			switch {
			case a.at != b.at:
				if a.at > b.at {
					return false
				}
			case a.band != b.band:
				if a.band > b.band {
					return false
				}
			case a.owner != b.owner:
				if a.owner > b.owner {
					return false
				}
			case a.order >= b.order:
				return false
			}
		}
		return len(fired) == events
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// waitFor parks p on the signal until pred() holds, re-evaluating after
// every Fire. pred is evaluated immediately first, so a pre-satisfied
// condition never blocks. Goroutine procs only; tasks re-check their
// predicate across Steps instead.
func (s *Signal) waitFor(p *Proc, tag string, pred func() bool) {
	for !pred() {
		s.Wait(p, tag)
	}
}

// TestReservedSeqFiresInPlace pins Reserve and AtCallSeq: an event scheduled
// later under a seq reserved now fires where an AtCall made now would have —
// after the same-instant events scheduled before the reservation, before
// those scheduled after it — and Seq reports it while it runs.
func TestReservedSeqFiresInPlace(t *testing.T) {
	k := NewKernel()
	var order []string
	rec := func(s string) func() { return func() { order = append(order, s) } }
	k.At(10, rec("a"))
	seq := k.Reserve()
	k.At(10, rec("c"))
	k.At(5, func() {
		k.AtCallSeq(10, seq, func(any) {
			if k.Seq() != seq {
				t.Errorf("Seq() = %d inside the reserved event, want %d", k.Seq(), seq)
			}
			order = append(order, "b")
		}, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("fired %q, want abc", got)
	}
}
