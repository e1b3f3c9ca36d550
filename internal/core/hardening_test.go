package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// checkOp's range guard: off+size must not wrap around int64 and sneak
// past the window-size comparison.
func TestCheckRangeRejectsOverflow(t *testing.T) {
	cases := []struct {
		name      string
		off, size int64
	}{
		{"negative offset", -1, 4},
		{"negative size", 0, -4},
		{"offset past end", 65, 1},
		{"size past end", 60, 8},
		{"sum overflows int64", 1, math.MaxInt64},
		{"both huge", math.MaxInt64, math.MaxInt64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, rt := testWorld(t, 2)
			err := w.Run(func(r *mpi.Rank) {
				win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew})
				if r.ID == 0 {
					win.Lock(1, false)
					win.Put(1, c.off, nil, c.size)
					win.Unlock(1)
				}
			})
			if err == nil {
				t.Fatalf("off=%d size=%d accepted on a 64-byte window", c.off, c.size)
			}
			if !strings.Contains(err.Error(), "core: rank 0 win 0:") {
				t.Errorf("abort lacks rank/window context: %v", err)
			}
		})
	}
}

// In-range accesses at the extreme edges must keep working.
func TestCheckRangeAcceptsBoundaries(t *testing.T) {
	w, rt := testWorld(t, 2)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew})
		if r.ID == 0 {
			win.Lock(1, false)
			win.Put(1, 0, []byte{1}, 1)
			win.Put(1, 63, []byte{2}, 1)
			win.Put(1, 64, nil, 0) // empty transfer at the end is legal
			win.Unlock(1)
		}
		win.Quiesce()
	})
}

// Waiting more than once on a completed epoch request, and waiting on the
// dummy pre-completed requests returned by the nonblocking opening routines,
// are explicitly safe no-ops.
func TestRepeatedWaitOnEpochRequests(t *testing.T) {
	w, rt := testWorld(t, 2)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 8, WinOptions{Mode: ModeNew})
		if r.ID == 0 {
			open := win.IStart([]int{1})
			if !open.Done() {
				t.Error("IStart must return a pre-completed dummy request")
			}
			r.Wait(open)
			r.Wait(open) // double-wait on the dummy
			win.Put(1, 0, []byte{7}, 1)
			close := win.IComplete()
			r.Wait(close)
			r.Wait(close) // double-wait on a completed close
			if !close.Done() {
				t.Error("close request regressed to incomplete")
			}
		} else {
			open := win.IPost([]int{0})
			r.Wait(open, open) // same request twice in one call
			wait := win.IWait()
			r.Wait(wait)
			r.Wait(wait)
		}
		lk := win.ILock((r.ID+1)%2, false)
		r.Wait(lk)
		r.Wait(lk)
		ul := win.IUnlock((r.ID + 1) % 2)
		r.Wait(ul)
		r.Wait(ul)
		win.Quiesce()
	})
}

// A lock that is never granted must be reported by the kernel's deadlock
// watchdog — naming the stuck rank and its blocking call site — rather than
// hanging the simulation.
func TestNeverGrantedLockReported(t *testing.T) {
	w, rt := testWorld(t, 3)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 8, WinOptions{Mode: ModeNew})
		switch r.ID {
		case 1:
			// Take rank 0's exclusive lock and never release it.
			win.ILock(0, true)
			r.WaitUntil("grant", func() bool { return win.PeerState(0).G >= 1 })
			r.Barrier()
		case 2:
			r.Barrier()
			win.Lock(0, true) // queued behind rank 1's hold, never granted
			win.Put(0, 0, []byte{1}, 1)
			win.Unlock(0) // blocks forever
		default:
			r.Barrier()
		}
	})
	if err == nil {
		t.Fatal("never-granted lock should abort the run, not hang")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deadlock") {
		t.Errorf("error does not mention deadlock: %v", err)
	}
	if !strings.Contains(msg, "rank2") {
		t.Errorf("report does not name the stuck rank: %v", err)
	}
	if !strings.Contains(msg, "sync_lock.go") {
		t.Errorf("report does not name the blocking call site: %v", err)
	}
	if !strings.Contains(msg, "awaiting grants from [0]") {
		t.Errorf("report does not dump the ungranted epoch: %v", err)
	}
}
