package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// An explicit group is its table in group order, and a whole-window epoch's
// table is its touches in touch order, on both sides of peertab's 16-slot
// scan limit: every member is found, no other rank is, and a second touch
// finds the slot rather than adding one.
func TestSlotTableScanThenIndex(t *testing.T) {
	w := predicateHarness(Info{})
	w.n = 64
	ranks := func(k int) []int {
		g := make([]int, k)
		for i := range g {
			g[i] = 3*((5*i)%k) + 1 // scattered and unsorted, never slot position == rank
		}
		return g
	}
	check := func(name string, ep *Epoch, group []int) {
		t.Helper()
		if ep.peers.Len() != len(group) {
			t.Fatalf("%s: %d slots for a group of %d", name, ep.peers.Len(), len(group))
		}
		for i, p := range group {
			if r, s := ep.peers.At(i); r != p || ep.peers.Find(p) != s {
				t.Fatalf("%s: slot %d holds rank %d, want %d", name, i, r, p)
			}
			if ep.peers.Find(p+1) != nil {
				t.Fatalf("%s: Find(%d) invented a slot", name, p+1)
			}
		}
	}
	for _, k := range []int{1, 3, 16, 17, 48} {
		group := ranks(k)
		explicit := epochOf(w, EpochAccess)
		explicit.peers.Add(group...)
		check("explicit", explicit, group)

		touched := epochOf(w, EpochLockAll)
		for _, p := range group {
			touched.peers.Get(p).pending++
		}
		for _, p := range group {
			touched.peers.Get(p).pending++ // second touch must find, not append
		}
		check("touched", touched, group)
		for i := range touched.peers.Len() {
			if _, s := touched.peers.At(i); s.pending != 2 {
				t.Fatalf("slot %d lost a touch across table growth: %+v", i, *s)
			}
		}
	}
}

// A whole-window epoch pays only for the peers it touched: flush mode's
// perpetual lock_all epoch on a 4096-rank window that communicates with
// three peers holds three slots, not 4096 — what keeps a 64k-rank flush
// world at O(touched) per window per rank.
func TestWholeWindowEpochStaysSparse(t *testing.T) {
	const n = 4096
	w, rt := testWorld(t, n)
	wins := make([]*Window, n)
	for i := range wins {
		wins[i] = rt.newWindow(w.Rank(i), 64, WinOptions{Mode: ModeFlush, ShapeOnly: true})
	}
	targets := []int{5, 1000, n - 1}
	runJob(t, w, func(r *mpi.Rank) {
		if r.ID != 0 {
			return
		}
		for round := 0; round < 3; round++ {
			for _, p := range targets {
				wins[0].Put(p, 0, nil, 8)
			}
			wins[0].FlushAll()
		}
	})
	ep := wins[0].impl.accessEpoch(wins[0], 0)
	if ep.peers.Len() != len(targets) {
		t.Fatalf("perpetual epoch holds %d slots, want %d", ep.peers.Len(), len(targets))
	}
	for i, p := range targets {
		if r, s := ep.peers.At(i); r != p || s.pending != 0 {
			t.Fatalf("slot %d: rank %d %+v, want target %d", i, r, *s, p)
		}
	}
	if ep.pendingAll != 0 || !ep.coversTarget(77) || ep.peers.Find(77) != nil {
		t.Fatalf("untouched peer 77: covered=%t slot=%v pendingAll=%d", ep.coversTarget(77), ep.peers.Find(77), ep.pendingAll)
	}
	for i := 1; i < n; i++ {
		if k := wins[i].impl.accessEpoch(wins[i], 0).peers.Len(); k != 0 {
			t.Fatalf("idle rank %d holds %d slots", i, k)
		}
	}
}

// An epoch-mode whole-window epoch is sparse while deferred (ops recorded
// before activation own the only slots) and filled once activated: slot i
// is rank i, and what the sparse table recorded moved with it.
func TestWholeWindowEpochDenseOnceActivated(t *testing.T) {
	w, rt := testWorld(t, 4)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew, ShapeOnly: true})
		if r.ID == 0 {
			// lock_all never reorders: it stays deferred behind the lock
			// epoch for as long as that one is open.
			win.ILock(3, true)
			win.ILockAll()
			la := win.openAccess[1]
			win.Put(2, 0, nil, 8)
			win.Put(1, 0, nil, 8)
			if first, _ := la.peers.At(0); la.activated || la.peers.Len() != 2 || first != 2 {
				t.Errorf("deferred lock_all: activated=%t slots=%d first=%d", la.activated, la.peers.Len(), first)
			}
			r.Wait(win.IUnlock(3))
			r.Wait(win.IUnlockAll())
			if la.peers.Len() != 4 {
				t.Errorf("activated lock_all: %d slots", la.peers.Len())
			}
			for i := range la.peers.Len() {
				rank, s := la.peers.At(i)
				if rank != i || !s.hasAccess || s.used != (i == 1 || i == 2) || s.recHead != nil {
					t.Errorf("slot %d after activation: rank %d %+v", i, rank, *s)
				}
			}
		}
		r.Barrier()
		win.Quiesce()
	})
}

// Aborting an epoch empties both intrusive recorded-op queues, unlinks the
// ops from one another, forgets them as live ops and fails request-based
// ones with the abort's cause — while plain ops just vanish.
func TestAbortEmptiesRecordedQueues(t *testing.T) {
	w, rt := testWorld(t, 3)
	var reqErrs [2]error
	var closeErr error
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew, EpochTimeout: 2 * sim.Millisecond})
		if r.ID != 0 {
			return // nobody posts: nothing is ever granted, nothing issues
		}
		win.IStart([]int{1, 2})
		ep := win.openAccess[0]
		rq1 := win.RPut(1, 0, make([]byte, 8), 8)
		win.Put(2, 0, make([]byte, 8), 8)
		rq2 := win.RGet(1, 8, make([]byte, 8), 8)
		first := ep.recHead
		if ep.recLive != 3 || first == nil || first.nextRec == nil || first.nextTgt != ep.recTail ||
			ep.peers.Find(1).recHead != first || ep.peers.Find(2).recHead != first.nextRec {
			t.Errorf("recorded queues before abort: recLive=%d", ep.recLive)
		}
		closeReq := win.IComplete()
		r.Wait(closeReq)
		closeErr = closeReq.Err()
		reqErrs[0], reqErrs[1] = rq1.Err(), rq2.Err()
		if !rq1.Done() || !rq2.Done() {
			t.Error("request-based ops of the aborted epoch still pending")
		}
		if ep.recHead != nil || ep.recTail != nil || ep.recLive != 0 {
			t.Errorf("program-order queue survived the abort: recLive=%d", ep.recLive)
		}
		for i := range ep.peers.Len() {
			if r, s := ep.peers.At(i); s.recHead != nil || s.recTail != nil {
				t.Errorf("target %d queue survived the abort", r)
			}
		}
		if first.nextRec != nil || first.nextTgt != nil || first.issued {
			t.Errorf("aborted op still linked (or issued=%t)", first.issued)
		}
		if win.liveHead != nil || win.liveTail != nil {
			t.Error("live ops after the abort")
		}
	})
	if err != nil {
		t.Fatalf("nonblocking abort escalated to a run failure: %v", err)
	}
	var rma *RMAError
	for i, e := range append(reqErrs[:], closeErr) {
		if !errors.As(e, &rma) || rma.Class != ErrTimeout {
			t.Errorf("request %d error = %v, want the epoch's ErrTimeout", i, e)
		}
	}
}

// Popping an open-epoch queue keeps its backing array and clears the vacated
// entry: a window cycling a thousand post/wait (and start/complete) epochs
// neither regrows its queues per epoch nor keeps a single completed epoch
// reachable — every one of them is collected while the window lives on.
func TestOpenQueuesRetainNoClosedEpochs(t *testing.T) {
	const epochs = 1000
	for _, mode := range []Mode{ModeNew, ModeVanilla} {
		w, rt := testWorld(t, 2)
		wins := make([]*Window, 2)
		var collected atomic.Int64
		// The finalizer sits on a sentinel only the epoch references (an
		// unused epoch in its free-list link, which nothing reads while the
		// epoch is open), not on the epoch: an access epoch and its ops
		// point at each other, and a finalizer inside a cycle never runs.
		watch := func(ep *Epoch) {
			ep.nextFree = new(Epoch)
			runtime.SetFinalizer(ep.nextFree, func(*Epoch) { collected.Add(1) })
		}
		runJob(t, w, func(r *mpi.Rank) {
			win := rt.CreateWindow(r, 64, WinOptions{Mode: mode, ShapeOnly: true})
			wins[r.ID] = win
			for i := 0; i < epochs; i++ {
				if r.ID == 0 {
					win.Start([]int{1})
					watch(win.openAccess[0])
					win.Put(1, 0, nil, 8)
					win.Complete()
				} else {
					win.Post([]int{0})
					watch(win.openExposure[0])
					win.WaitEpoch()
				}
			}
			r.Barrier()
			win.Quiesce()
		})
		for i := 0; i < 50 && collected.Load() < 2*epochs; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond) // finalizers run on their own goroutine
		}
		if got := collected.Load(); got != 2*epochs {
			t.Errorf("mode %v: %d of %d closed epochs were collected; the window retains the rest", mode, got, 2*epochs)
		}
		for rank, win := range wins {
			for name, q := range map[string][]*Epoch{
				"openAccess": win.openAccess, "openExposure": win.openExposure, "epochs": win.epochs,
			} {
				if len(q) != 0 || cap(q) > 8 {
					t.Errorf("mode %v rank %d: %s has len %d cap %d after 1000 epochs", mode, rank, name, len(q), cap(q))
				}
				for i, ep := range q[:cap(q)] {
					if ep != nil {
						t.Errorf("mode %v rank %d: %s[%d] still holds %s", mode, rank, name, i, ep)
					}
				}
			}
		}
	}
}
