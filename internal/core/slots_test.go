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

// Up to slotScanMax slots are found by linear scan (no index is built);
// beyond, a rank-sorted slot index takes over — whether the table was
// installed as an explicit group or grew one touch at a time.
func TestSlotTableScanThenIndex(t *testing.T) {
	w := predicateHarness(Info{})
	w.n = 4 * slotScanMax
	ranks := func(k int) []int {
		g := make([]int, k)
		for i := range g {
			g[i] = 3*i + 1 // scattered, never slot position == rank
		}
		return g
	}
	check := func(name string, ep *Epoch, group []int, indexed bool) {
		t.Helper()
		if (ep.index != nil) != indexed {
			t.Fatalf("%s: %d slots, index built = %t, want %t", name, len(ep.peers), ep.index != nil, indexed)
		}
		if len(ep.peers) != len(group) {
			t.Fatalf("%s: %d slots for a group of %d", name, len(ep.peers), len(group))
		}
		for i, p := range group {
			if s := ep.find(p); s != &ep.peers[i] || int(s.rank) != p {
				t.Fatalf("%s: find(%d) missed slot %d", name, p, i)
			}
			if ep.find(p+1) != nil {
				t.Fatalf("%s: find(%d) invented a slot", name, p+1)
			}
		}
	}
	for _, k := range []int{1, 3, slotScanMax, slotScanMax + 1, 3 * slotScanMax} {
		group := ranks(k)
		explicit := epochOf(w, EpochAccess)
		explicit.setGroup(group)
		check("explicit", explicit, group, k > slotScanMax)

		touched := epochOf(w, EpochLockAll)
		for _, p := range group {
			touched.slot(p).pending++
		}
		for _, p := range group {
			touched.slot(p).pending++ // second touch must find, not append
		}
		check("touched", touched, group, k > slotScanMax)
		for i := range touched.peers {
			if touched.peers[i].pending != 2 {
				t.Fatalf("slot %d lost a touch across table growth: %+v", i, touched.peers[i])
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
	if len(ep.peers) != len(targets) || ep.index != nil || ep.dense {
		t.Fatalf("perpetual epoch holds %d slots (index %t, dense %t), want %d scanned slots",
			len(ep.peers), ep.index != nil, ep.dense, len(targets))
	}
	for i, p := range targets {
		if s := ep.find(p); s != &ep.peers[i] || s.pending != 0 {
			t.Fatalf("slot for target %d: %+v", p, s)
		}
	}
	if ep.pendingAll != 0 || !ep.coversTarget(77) || ep.find(77) != nil {
		t.Fatalf("untouched peer 77: covered=%t slot=%v pendingAll=%d", ep.coversTarget(77), ep.find(77), ep.pendingAll)
	}
	for i := 1; i < n; i++ {
		if k := len(wins[i].impl.accessEpoch(wins[i], 0).peers); k != 0 {
			t.Fatalf("idle rank %d holds %d slots", i, k)
		}
	}
}

// An epoch-mode whole-window epoch is sparse while deferred (ops recorded
// before activation own the only slots) and dense once activated: slot i is
// rank i, and what the sparse table recorded moved with it.
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
			if la.activated || la.dense || len(la.peers) != 2 || la.peers[0].rank != 2 {
				t.Errorf("deferred lock_all: activated=%t dense=%t slots=%+v", la.activated, la.dense, la.peers)
			}
			r.Wait(win.IUnlock(3))
			r.Wait(win.IUnlockAll())
			if !la.dense || len(la.peers) != 4 || la.index != nil {
				t.Errorf("activated lock_all: dense=%t slots=%d", la.dense, len(la.peers))
			}
			for i := range la.peers {
				s := &la.peers[i]
				if int(s.rank) != i || !s.hasAccess || s.used != (i == 1 || i == 2) || s.recHead != nil {
					t.Errorf("slot %d after activation: %+v", i, *s)
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
			ep.find(1).recHead != first || ep.find(2).recHead != first.nextRec {
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
		for i := range ep.peers {
			if s := ep.peers[i]; s.recHead != nil || s.recTail != nil {
				t.Errorf("target %d queue survived the abort", s.rank)
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
		// The finalizer sits on a sentinel only the epoch references (its
		// unused conflict-extent array), not on the epoch: an access epoch
		// and its ops point at each other, and a finalizer inside a cycle
		// never runs.
		watch := func(ep *Epoch) {
			ep.extents = make([]opExtent, 1)
			runtime.SetFinalizer(&ep.extents[0], func(*opExtent) { collected.Add(1) })
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
