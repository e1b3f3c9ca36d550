package core

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestNoCheckLockSkipsProtocol(t *testing.T) {
	// A NOCHECK epoch's transfers start without waiting for a grant, so a
	// small epoch completes in ~one delivery instead of a full lock RTT.
	measure := func(noCheck bool) sim.Time {
		w, rt := testWorld(t, 2)
		var d sim.Time
		runJob(t, w, func(r *mpi.Rank) {
			win := rt.CreateWindow(r, 8, WinOptions{Mode: ModeNew})
			if r.ID == 0 {
				t0 := r.Now()
				win.LockAssert(1, true, noCheck)
				win.Put(1, 0, []byte{7}, 1)
				r.Wait(win.IUnlock(1))
				d = r.Now() - t0
			}
			r.Barrier()
			if r.ID == 1 && win.Bytes()[0] != 7 {
				t.Error("NOCHECK put not delivered")
			}
			win.Quiesce()
		})
		return d
	}
	checked := measure(false)
	nocheck := measure(true)
	if nocheck >= checked {
		t.Fatalf("NOCHECK (%d us) should beat the checked lock (%d us)",
			nocheck/sim.Microsecond, checked/sim.Microsecond)
	}
}

func TestNoCheckDoesNotDisturbAgent(t *testing.T) {
	// NOCHECK epochs must not touch the target's lock agent or counters:
	// a later normal lock epoch still matches correctly.
	w, rt := testWorld(t, 2)
	var sum uint64
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 8, WinOptions{Mode: ModeNew})
		if r.ID == 0 {
			one := make([]byte, 8)
			binary.LittleEndian.PutUint64(one, 1)
			win.LockAssert(1, true, true)
			win.Accumulate(1, 0, OpSum, TUint64, one, 8)
			win.Unlock(1)
			// Normal lock epoch afterwards.
			win.Lock(1, true)
			win.Accumulate(1, 0, OpSum, TUint64, one, 8)
			win.Unlock(1)
		}
		r.Barrier()
		if r.ID == 1 {
			sum = binary.LittleEndian.Uint64(win.Bytes())
			excl, shared, queued := win.agent.holders()
			if excl != -1 || shared != 0 || queued != 0 {
				t.Errorf("agent disturbed: excl=%d shared=%d queued=%d", excl, shared, queued)
			}
		}
		win.Quiesce()
	})
	if sum != 2 {
		t.Fatalf("sum %d, want 2", sum)
	}
}

// LockAssert is Lock with one more argument, so with noCheck false the two
// must fail alike. On a flush-mode window an acquisition toward a peer the
// origin knows dead completes unsuccessfully (deadAcquire); both blocking
// forms must surface that as the *RMAError instead of returning as if the
// lock were held.
func TestLockAssertFailsLikeLock(t *testing.T) {
	forms := map[string]func(*Window){
		"Lock":       func(win *Window) { win.Lock(1, true) },
		"LockAssert": func(win *Window) { win.LockAssert(1, true, false) },
	}
	for name, lock := range forms {
		w, rt := testWorld(t, 3)
		err := w.Run(func(r *mpi.Rank) {
			win := rt.CreateWindow(r, 8, WinOptions{Mode: ModeFlush})
			if r.ID != 0 {
				return
			}
			rt.engines[0].peerUnreachable(1) // no dependency on 1 yet: the window stays healthy
			if win.Err() != nil {
				t.Errorf("%s: window poisoned by an unrelated death: %v", name, win.Err())
			}
			lock(win)
			t.Errorf("%s toward a dead target returned as if the lock were held", name)
		})
		var rma *RMAError
		if !errors.As(err, &rma) || rma.Class != ErrRankUnreachable || rma.Peer != 1 {
			t.Errorf("%s: run error = %v, want ERR_RANK_UNREACHABLE toward 1", name, err)
		}
	}
}

// On a vanilla window LockAssert(t, x, false) is exactly Lock(t, x) — same
// virtual time, same memory — and only the NOCHECK assertion, which the lazy
// lock cannot honour, is refused, by name.
func TestVanillaLockAssertIsLock(t *testing.T) {
	type outcome struct {
		took sim.Time
		mem  byte
	}
	measure := func(lock func(*Window)) outcome {
		w, rt := testWorld(t, 2)
		var o outcome
		runJob(t, w, func(r *mpi.Rank) {
			win := rt.CreateWindow(r, 8, WinOptions{Mode: ModeVanilla})
			if r.ID == 0 {
				t0 := r.Now()
				lock(win)
				win.Put(1, 0, []byte{7}, 1)
				win.Unlock(1)
				o.took = r.Now() - t0
			}
			r.Barrier()
			if r.ID == 1 {
				o.mem = win.Bytes()[0]
			}
		})
		return o
	}
	viaLock := measure(func(win *Window) { win.Lock(1, true) })
	viaAssert := measure(func(win *Window) { win.LockAssert(1, true, false) })
	if viaLock != viaAssert || viaLock.mem != 7 {
		t.Fatalf("Lock %+v vs LockAssert(noCheck=false) %+v, want identical with the put delivered", viaLock, viaAssert)
	}

	w, rt := testWorld(t, 2)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 8, WinOptions{Mode: ModeVanilla})
		if r.ID == 0 {
			win.LockAssert(1, true, true)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "NOCHECK") {
		t.Fatalf("vanilla NOCHECK lock: error %v, want a refusal naming NOCHECK", err)
	}
}
