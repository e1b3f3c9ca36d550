package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests for the migrating event loop: how many goroutine switches a wake
// costs, that parking allocates nothing, that kernel-context panics reach
// the Run caller, and that failed runs leave no goroutine behind.

// A proc that only ever wakes itself runs its own wake events: the token
// leaves home once (launch) and returns once (queue drained), however many
// times the proc parks.
func TestOwnWakeCostsNoSwitch(t *testing.T) {
	k := NewKernel()
	k.Spawn("solo", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(3)
			p.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.switches != 2 {
		t.Fatalf("%d token hand-offs for a self-waking proc, want 2 (launch + final stop)", k.switches)
	}
}

// Two procs alternating over a pair of signals: the waker runs the other's
// wake event itself and hands the token straight over, one switch per wake.
func TestCrossProcWakeCostsOneSwitch(t *testing.T) {
	const rounds = 500
	k := NewKernel()
	ping, pong := NewSignal(k), NewSignal(k)
	wakes := 0
	k.Spawn("b", func(p *Proc) { // first, so it is waiting when a fires
		for i := 0; i < rounds; i++ {
			pong.Wait(p, "pong")
			wakes++
			ping.Fire()
		}
	})
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			pong.Fire()
			ping.Wait(p, "ping")
			wakes++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 2*rounds {
		t.Fatalf("%d wakes, want %d", wakes, 2*rounds)
	}
	// Two launches, one switch per wake, and the last finisher's stop.
	if want := uint64(2 + wakes + 1); k.switches != want {
		t.Fatalf("%d token hand-offs for %d cross-proc wakes, want %d", k.switches, wakes, want)
	}
}

// A finished proc's goroutine keeps the token and drives until it can hand
// it to the next proc, so n procs that each sleep once cost n launches, n
// wakes and the final stop — nothing per exit.
func TestProcExitCostsNoTripHome(t *testing.T) {
	const n = 16
	k := NewKernel()
	for i := 0; i < n; i++ {
		d := Time(100 + i)
		k.Spawn("p", func(p *Proc) { p.Sleep(d) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := uint64(2*n + 1); k.switches != want {
		t.Fatalf("%d token hand-offs for %d sleep-once procs, want %d", k.switches, n, want)
	}
}

// Parking must not allocate on either path: running one's own wake, or
// handing the token to another proc and getting it back.
func TestParkAllocs(t *testing.T) {
	k := NewKernel()
	gate, turn := NewSignal(k), NewSignal(k)
	yields, exchanges, done := 0, 0, false
	k.Spawn("solo", func(p *Proc) {
		for !done {
			for ; yields > 0; yields-- {
				p.Yield() // own wake
			}
			gate.Wait(p, "gate")
		}
	})
	k.Spawn("left", func(p *Proc) {
		for !done {
			for ; exchanges > 0; exchanges-- {
				turn.Fire()
				turn.Wait(p, "turn") // hand-off to right and back
			}
			gate.Wait(p, "gate")
		}
	})
	k.Spawn("right", func(p *Proc) {
		for !done {
			turn.Wait(p, "turn")
			turn.Fire()
		}
	})
	pump := func(n *int) func() {
		return func() {
			*n = 64
			gate.Fire()
			if err := k.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	pumpSolo, pumpPair := pump(&yields), pump(&exchanges)
	pumpSolo() // warm-up: goroutines, heap storage, waiter slices
	pumpPair()
	if a := testing.AllocsPerRun(100, pumpSolo); a != 0 {
		t.Errorf("park/own-wake: %.1f allocs per 64 parks, want 0", a)
	}
	if a := testing.AllocsPerRun(100, pumpPair); a != 0 {
		t.Errorf("park/hand-off: %.1f allocs per 64 exchanges, want 0", a)
	}
	done = true
	gate.Fire()
	turn.Fire()
	if err := k.Drain(); err != nil {
		t.Fatal(err)
	}
}

// An event callback that panics while a proc goroutine is driving the loop
// is a kernel-context failure: it must come out of Run as the same panic,
// not be recovered as the driving proc's own.
func TestKernelContextPanicReachesRunCaller(t *testing.T) {
	k := NewKernel()
	k.Spawn("driver", func(p *Proc) { p.Sleep(10) }) // parked, so it runs the t=5 event
	k.At(5, func() { panic("fabric: boom in kernel context") })
	defer func() {
		if r := recover(); r != "fabric: boom in kernel context" {
			t.Fatalf("Run panicked with %v, want the callback's own value", r)
		}
	}()
	err := k.Run()
	t.Fatalf("Run returned %v, want the callback's panic", err)
}

// waitGoroutines polls until the goroutine count is back to base: a reaped
// goroutine has handed the token back before its last frame returns.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// A failed run must not strand its parked procs: Run unwinds them one at a
// time, in spawn order, running their defers — including one that tries to
// block again.
func TestFailedRunLeavesNoGoroutines(t *testing.T) {
	const n = 8
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			var sh *Shards
			var kernelFor func(int) *Kernel
			if shards > 0 {
				assign := make([]int, n)
				for r := range assign {
					assign[r] = r * shards / n
				}
				sh = NewShards(assign)
				sh.SetLookahead(5)
				kernelFor = sh.KernelFor
			} else {
				k := NewKernel()
				kernelFor = func(int) *Kernel { return k }
			}
			var unwound []int
			for r := 0; r < n; r++ {
				r, k := r, kernelFor(r)
				never := NewSignal(k)
				k.Spawn(fmt.Sprintf("rank%d", r), func(p *Proc) {
					defer func() { unwound = append(unwound, r) }()
					defer p.Sleep(1) // a defer that parks must not run the loop again
					p.Sleep(Time(r + 1))
					never.Wait(p, "never-fired")
				})
			}
			var err error
			if sh != nil {
				err = sh.Run()
			} else {
				err = kernelFor(0).Run()
			}
			if err == nil || !strings.Contains(err.Error(), "deadlock") {
				t.Fatalf("want deadlock error, got %v", err)
			}
			if got, want := fmt.Sprint(unwound), "[0 1 2 3 4 5 6 7]"; got != want {
				t.Fatalf("defers ran in order %s, want %s", got, want)
			}
			waitGoroutines(t, base)
		})
	}
}
