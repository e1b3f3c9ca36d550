package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests for the coroutines of Spawn procs: that parking allocates nothing,
// that kernel-context panics reach the Run caller, and that failed runs
// leave no goroutine behind.

// Parking must not allocate on either path: resumed by one's own wake, or
// by another proc's Fire after that proc ran in between.
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

// An event callback that panics while a proc is parked is a kernel-context
// failure: it must come out of Run as the same panic, not be recovered as
// the parked proc's own.
func TestKernelContextPanicReachesRunCaller(t *testing.T) {
	k := NewKernel()
	k.Spawn("driver", func(p *Proc) { p.Sleep(10) }) // parked across the t=5 event
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
// body's coroutine and helper have signalled Run before their last frames
// return.
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
// time, in spawn order, running their defers once — including one that
// tries to block again, and a recover that would swallow a panic.
func TestFailedRunLeavesNoGoroutines(t *testing.T) {
	const n = 9
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
					if r == n-1 {
						func() {
							defer func() { recover() }()
							never.Wait(p, "never-fired")
						}()
						unwound = append(unwound, -1) // the recover stopped the unwinding
					}
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
			if got, want := fmt.Sprint(unwound), "[0 1 2 3 4 5 6 7 8]"; got != want {
				t.Fatalf("defers ran in order %s, want %s", got, want)
			}
			waitGoroutines(t, base)
		})
	}
}
