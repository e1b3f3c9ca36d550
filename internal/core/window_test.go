package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// predicateHarness builds a bare window for exercising canReorder.
func predicateHarness(info Info) *Window {
	w := mpi.NewWorld(1, fabric.DefaultConfig())
	rt := NewRuntime(w)
	win := &Window{rank: w.Rank(0), eng: &rt.engines[0], n: 4, info: info}
	return win
}

func epochOf(w *Window, kind EpochKind) *Epoch {
	ep := newEpoch(w, kind)
	return ep
}

func TestCanReorderMatrix(t *testing.T) {
	cases := []struct {
		name       string
		info       Info
		prev, next EpochKind
		want       bool
	}{
		{"access-after-access off", Info{}, EpochAccess, EpochAccess, false},
		{"access-after-access on", Info{AAAR: true}, EpochAccess, EpochAccess, true},
		{"lock-after-lock on (locks are access role)", Info{AAAR: true}, EpochLock, EpochLock, true},
		{"access-after-exposure on", Info{AAER: true}, EpochExposure, EpochAccess, true},
		{"access-after-exposure off", Info{AAAR: true}, EpochExposure, EpochAccess, false},
		{"exposure-after-exposure on", Info{EAER: true}, EpochExposure, EpochExposure, true},
		{"exposure-after-access on", Info{EAAR: true}, EpochAccess, EpochExposure, true},
		{"exposure-after-access off", Info{EAER: true}, EpochAccess, EpochExposure, false},
		{"fence excluded as prev", Info{AAAR: true, AAER: true, EAER: true, EAAR: true}, EpochFence, EpochAccess, false},
		{"fence excluded as next", Info{AAAR: true, AAER: true, EAER: true, EAAR: true}, EpochAccess, EpochFence, false},
		{"lock_all excluded as prev", Info{AAAR: true, AAER: true, EAER: true, EAAR: true}, EpochLockAll, EpochAccess, false},
		{"lock_all excluded as next", Info{AAAR: true, AAER: true, EAER: true, EAAR: true}, EpochLock, EpochLockAll, false},
	}
	for _, c := range cases {
		w := predicateHarness(c.info)
		prev := epochOf(w, c.prev)
		next := epochOf(w, c.next)
		if got := w.canReorder(prev, next); got != c.want {
			t.Errorf("%s: canReorder=%t, want %t", c.name, got, c.want)
		}
	}
}

func TestCoversTarget(t *testing.T) {
	w := predicateHarness(Info{})
	gats := epochOf(w, EpochAccess)
	gats.peers.Add(1, 3)
	if !gats.coversTarget(1) || !gats.coversTarget(3) || gats.coversTarget(2) {
		t.Fatal("GATS coverage wrong")
	}
	fence := epochOf(w, EpochFence)
	for i := 0; i < 4; i++ {
		if !fence.coversTarget(i) {
			t.Fatalf("fence should cover rank %d", i)
		}
	}
	if fence.coversTarget(4) || fence.coversTarget(-1) {
		t.Fatal("fence covers out-of-range ranks")
	}
	expo := epochOf(w, EpochExposure)
	if expo.coversTarget(0) {
		t.Fatal("exposure epochs have no access side")
	}
	la := epochOf(w, EpochLockAll)
	if !la.coversTarget(0) || !la.coversTarget(3) {
		t.Fatal("lock_all should cover all ranks")
	}
}

func TestAccessTargetsAndOrigins(t *testing.T) {
	w := predicateHarness(Info{})
	group := func(ep *Epoch) (ranks []int, slots int) {
		for i, n := 0, ep.groupSize(); i < n; i++ {
			p, s := ep.peerAt(i)
			ranks = append(ranks, p)
			if s != nil {
				slots++
			}
		}
		return ranks, slots
	}
	// Whole-window kinds enumerate 0..n-1 without owning a slot per rank.
	for _, kind := range []EpochKind{EpochFence, EpochLockAll} {
		got, slots := group(epochOf(w, kind))
		if len(got) != 4 || got[0] != 0 || got[3] != 3 || slots != 0 {
			t.Fatalf("%s group %v with %d slots, want 0..3 and none", kind, got, slots)
		}
	}
	// Explicit groups enumerate their slot table, in group order.
	expo := epochOf(w, EpochExposure)
	expo.peers.Add(2, 0)
	if got, slots := group(expo); len(got) != 2 || got[0] != 2 || got[1] != 0 || slots != 2 {
		t.Fatalf("exposure group %v with %d slots", got, slots)
	}
	if !expo.inGroup(0) || expo.inGroup(1) || expo.coversTarget(0) {
		t.Fatal("exposure membership wrong")
	}
}

func TestEpochKindStringsAndRoles(t *testing.T) {
	for _, k := range []EpochKind{EpochFence, EpochAccess, EpochExposure, EpochLock, EpochLockAll} {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if !EpochFence.isAccessRole() || !EpochFence.isExposureRole() {
		t.Fatal("fence plays both roles")
	}
	if EpochAccess.isExposureRole() || EpochExposure.isAccessRole() {
		t.Fatal("GATS roles crossed")
	}
	if !EpochLock.isAccessRole() || !EpochLockAll.isAccessRole() {
		t.Fatal("locks are access-role epochs")
	}
	if !EpochFence.reorderExcluded() || !EpochLockAll.reorderExcluded() {
		t.Fatal("fence and lock_all must be excluded from reordering")
	}
	if EpochLock.reorderExcluded() {
		t.Fatal("single-target locks are reorderable")
	}
}

func TestModeAndDTypeStrings(t *testing.T) {
	if ModeNew.String() != "new" || ModeVanilla.String() != "vanilla" {
		t.Fatal("mode names wrong")
	}
	if TInt64.Size() != 8 || TByte.Size() != 1 {
		t.Fatal("datatype sizes wrong")
	}
}

func TestWindowAccessors(t *testing.T) {
	w, rt := testWorld(t, 2)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 128, WinOptions{Mode: ModeNew})
		if win.Size() != 128 || win.Mode() != ModeNew || win.Rank() != r {
			t.Error("window accessors wrong")
		}
		if len(win.Bytes()) != 128 {
			t.Error("window memory not allocated")
		}
		shape := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew, ShapeOnly: true})
		if shape.Bytes() != nil {
			t.Error("shape-only window allocated memory")
		}
	})
}

func TestMultipleWindowsIndependent(t *testing.T) {
	w, rt := testWorld(t, 2)
	runJob(t, w, func(r *mpi.Rank) {
		a := rt.CreateWindow(r, 8, WinOptions{Mode: ModeNew})
		b := rt.CreateWindow(r, 8, WinOptions{Mode: ModeVanilla})
		if r.ID == 0 {
			a.Lock(1, true)
			a.Put(1, 0, []byte{1}, 1)
			a.Unlock(1)
			b.Lock(1, true)
			b.Put(1, 0, []byte{2}, 1)
			b.Unlock(1)
		}
		r.Barrier()
		if r.ID == 1 {
			if a.Bytes()[0] != 1 || b.Bytes()[0] != 2 {
				t.Errorf("windows cross-talked: a=%d b=%d", a.Bytes()[0], b.Bytes()[0])
			}
		}
		a.Quiesce()
		b.Quiesce()
	})
}

func TestNegativeWindowSizePanics(t *testing.T) {
	w, rt := testWorld(t, 1)
	err := w.Run(func(r *mpi.Rank) {
		rt.CreateWindow(r, -1, WinOptions{})
	})
	if err == nil {
		t.Fatal("negative window size should fail")
	}
}

func TestCloseWithoutOpenPanics(t *testing.T) {
	w, rt := testWorld(t, 2)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 8, WinOptions{Mode: ModeNew})
		if r.ID == 0 {
			win.Complete()
		}
	})
	if err == nil {
		t.Fatal("Complete without Start should fail")
	}
}

func TestUnlockWrongTargetPanics(t *testing.T) {
	w, rt := testWorld(t, 3)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 8, WinOptions{Mode: ModeNew})
		if r.ID == 0 {
			win.Lock(1, true)
			win.Unlock(2)
		}
	})
	if err == nil {
		t.Fatal("Unlock of a different target should fail")
	}
}

// counts is a snapshot of a rank's counters, indexed by metrics.ID; a
// counter dead in the rank's row reads 0.
type counts []int64

// counters snapshots the row of w's rank in the world's metrics set: the
// counters of every window of the rank and of its fabric endpoint.
func (w *Window) counters() counts {
	c := make(counts, 64) // more than every declared counter
	for id := range c {
		c[id] = w.eng.ctr.Get(metrics.ID(id))
	}
	return c
}

// The fabric counters core's tests read.
var fabDrops, fabRetransmits = metrics.Lookup("fabric.drops"), metrics.Lookup("fabric.retransmits")

func TestWindowStatsAndFree(t *testing.T) {
	w, rt := testWorld(t, 2)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew})
		if r.ID == 0 {
			win.Lock(1, true)
			win.Put(1, 0, []byte{1, 2, 3, 4}, 4)
			win.Unlock(1)
			s := win.counters()
			if s[cEpochsOpened] != 1 || s[cOpsIssued] != 1 || s[cBytesOut] != 4 {
				t.Errorf("stats %+v wrong", s)
			}
		}
		win.Free()
		if r.ID == 1 {
			// Grants served by rank 1's agent for rank 0's lock epoch.
			// (Counters are readable after Free.)
			if win.counters()[cLockGrants] != 1 {
				t.Errorf("lock grants %d, want 1", win.counters()[cLockGrants])
			}
		}
	})
}

func TestUseAfterFreePanics(t *testing.T) {
	w, rt := testWorld(t, 2)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew})
		win.Free()
		if r.ID == 0 {
			win.ILock(1, true)
		}
	})
	if err == nil {
		t.Fatal("use after Free should fail the run")
	}
}
