package core

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// syncCell is one synchronization entry point (or a blocking set of them)
// driven by a two-rank program: rank 0 is the origin, rank 1 the target, and
// every synchronization not under test takes its blocking form.
type syncCell struct {
	name           string
	origin, target func(c *cellRank) []func()
}

// cellRank is one rank's state inside a syncCell program.
type cellRank struct {
	win  *Window
	r    *mpi.Rank
	q    *mpi.Request
	done bool
}

func (c *cellRank) wait() { c.r.Wait(c.q) }

func (c *cellRank) put() { c.win.Put(1-c.r.ID, int64(c.r.ID), []byte{byte(c.r.ID + 1)}, 1) }

// gatsCell opens and closes one access epoch on rank 0 and one exposure
// epoch on rank 1; iStart, iComplete and iPost pick those calls' I-forms,
// and wait is how the target closes: "block" (WaitEpoch), "i" (IWait) or
// "test" (TestEpoch once the origin has long finished).
func gatsCell(name string, iStart, iComplete, iPost bool, wait string) syncCell {
	return syncCell{name: name,
		origin: func(c *cellRank) []func() {
			open := func() { c.win.Start([]int{1}) }
			if iStart {
				open = func() { c.q = c.win.IStart([]int{1}) }
			}
			calls := []func(){open, c.put}
			if iComplete {
				return append(calls, func() { c.q = c.win.IComplete() }, c.wait)
			}
			return append(calls, func() { c.win.Complete() })
		},
		target: func(c *cellRank) []func() {
			calls := []func(){func() { c.win.Post([]int{0}) }}
			if iPost {
				calls[0] = func() { c.q = c.win.IPost([]int{0}) }
			}
			switch wait {
			case "i":
				return append(calls, func() { c.q = c.win.IWait() }, c.wait)
			case "test":
				return append(calls,
					func() { c.r.Compute(200 * sim.Microsecond) },
					func() { c.done = c.win.TestEpoch() },
					func() {
						if !c.done {
							c.win.WaitEpoch()
						}
					})
			}
			return append(calls, func() { c.win.WaitEpoch() })
		},
	}
}

// fenceCell is two fences around one put on each rank.
func fenceCell(name string, nb bool) syncCell {
	body := func(c *cellRank) []func() {
		if nb {
			return []func(){
				func() { c.q = c.win.IFence(AssertNone) }, c.wait, c.put,
				func() { c.q = c.win.IFence(AssertNoSucceed) }, c.wait,
			}
		}
		return []func(){
			func() { c.win.Fence(AssertNone) }, c.put,
			func() { c.win.Fence(AssertNoSucceed) },
		}
	}
	return syncCell{name: name, origin: body, target: body}
}

// lockCell is one passive-target epoch from rank 0 on rank 1 (all ranks,
// when all): iLock and iUnlock pick the I-forms, noCheck the assertion.
func lockCell(name string, all, iLock, noCheck, iUnlock bool) syncCell {
	return syncCell{name: name,
		origin: func(c *cellRank) []func() {
			var lock, unlock func()
			switch {
			case all && iLock:
				lock = func() { c.q = c.win.ILockAll() }
			case all:
				lock = func() { c.win.LockAll() }
			case iLock:
				lock = func() { c.q = c.win.ILockAssert(1, true, noCheck) }
			default:
				lock = func() { c.win.LockAssert(1, true, noCheck) }
			}
			switch {
			case all && iUnlock:
				unlock = func() { c.q = c.win.IUnlockAll() }
			case all:
				unlock = func() { c.win.UnlockAll() }
			case iUnlock:
				unlock = func() { c.q = c.win.IUnlock(1) }
			default:
				unlock = func() { c.win.Unlock(1) }
			}
			calls := []func(){lock}
			if iLock {
				calls = append(calls, c.wait)
			}
			if calls = append(calls, c.put, unlock); iUnlock {
				calls = append(calls, c.wait)
			}
			return calls
		},
		target: func(c *cellRank) []func() { return nil },
	}
}

// syncCells covers every synchronization entry point of a window.
var syncCells = []syncCell{
	gatsCell("IStart", true, false, false, "block"),
	gatsCell("IComplete", false, true, false, "block"),
	gatsCell("IPost", false, false, true, "block"),
	gatsCell("IWait", false, false, false, "i"),
	gatsCell("TestEpoch", false, false, false, "test"),
	gatsCell("Start+Complete+Post+WaitEpoch", false, false, false, "block"),
	fenceCell("IFence", true),
	fenceCell("Fence", false),
	lockCell("ILock", false, true, false, false),
	lockCell("IUnlock", false, false, false, true),
	lockCell("Lock+Unlock", false, false, false, false),
	lockCell("ILockAssert-nocheck", false, true, true, false),
	lockCell("LockAssert-nocheck", false, false, true, false),
	lockCell("ILockAll", true, true, false, false),
	lockCell("IUnlockAll", true, false, false, true),
	lockCell("LockAll+UnlockAll", true, false, false, false),
}

// wantRefusal is what a cell must fail with under mode, "" when the cell is
// legal there: vanilla has no I-forms and no NOCHECK locks, and flush mode
// is epochless, so it admits only the passive-target family.
func wantRefusal(mode Mode, cell string) string {
	switch {
	case mode == ModeVanilla && strings.HasPrefix(cell, "I"):
		return "nonblocking synchronizations are unavailable in vanilla mode"
	case mode == ModeVanilla && cell == "LockAssert-nocheck":
		return "MPI_MODE_NOCHECK locks are unavailable in vanilla mode"
	case mode == ModeFlush && !strings.Contains(strings.ToLower(cell), "lock"):
		return "synchronizations are unavailable in flush mode"
	}
	return ""
}

// TestModeRefusalsBothForms runs every mode × synchronization entry point in
// both rank forms: a cell the mode refuses fails the run with the refusal,
// and a legal cell runs clean.
func TestModeRefusalsBothForms(t *testing.T) {
	for _, mode := range []Mode{ModeNew, ModeVanilla, ModeFlush} {
		for _, cell := range syncCells {
			want := wantRefusal(mode, cell.name)
			for _, tasks := range []bool{false, true} {
				w, rt := testWorld(t, 2)
				err := runForm(w, rt, tasks, func(rt *Runtime, r *mpi.Rank) []func() {
					c := &cellRank{r: r}
					body := cell.target
					if r.ID == 0 {
						body = cell.origin
					}
					calls := append([]func(){func() { c.win = rt.CreateWindow(r, 8, WinOptions{Mode: mode}) }}, body(c)...)
					return append(calls, func() { r.Barrier() })
				})
				switch {
				case want == "" && err != nil:
					t.Errorf("%s/%s tasks=%t: legal cell failed: %v", mode, cell.name, tasks, err)
				case want != "" && err == nil:
					t.Errorf("%s/%s tasks=%t: refused cell ran clean", mode, cell.name, tasks)
				case want != "" && !strings.Contains(err.Error(), want):
					t.Errorf("%s/%s tasks=%t: failed with %v, want the refusal %q", mode, cell.name, tasks, err, want)
				}
			}
		}
	}
}

// mustPanic runs f and returns its panic message, failing t if f returns.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil {
			t.Errorf("%s did not panic", what)
		} else {
			msg, _ = r.(string)
		}
	}()
	f()
	return ""
}

// TestCreateWindowRejectsUnknownOptions: a mode or transport outside its
// enumeration panics at window creation instead of running as the zero
// value, and each prints its number.
func TestCreateWindowRejectsUnknownOptions(t *testing.T) {
	for _, tc := range []struct {
		opt  WinOptions
		want string
	}{
		{WinOptions{Mode: Mode(7)}, "core: rank 0 win 0: unknown Mode(7)"},
		{WinOptions{Transport: Transport(9)}, "core: rank 0 win 0: unknown Transport(9)"},
		{WinOptions{Mode: ModeFlush, FlushMaster: 2}, "core: rank 0 win 0: FlushMaster 2 out of range (n=2)"},
	} {
		w, rt := testWorld(t, 2)
		if got := mustPanic(t, tc.want, func() { rt.newWindow(w.Rank(0), 8, tc.opt) }); got != tc.want {
			t.Errorf("panicked with %q, want %q", got, tc.want)
		}
	}
	for m, nb := range map[Mode]bool{ModeNew: true, ModeVanilla: false, ModeFlush: true} {
		if m.Nonblocking() != nb {
			t.Errorf("%s.Nonblocking() = %t, want %t", m, !nb, nb)
		}
	}
}

// TestNicDeliverRaises: a packet the NIC cannot serve — a lock-protocol
// atomic on a window that is not in flush mode, an unknown kind, an unknown
// window — panics with the rank's context.
func TestNicDeliverRaises(t *testing.T) {
	w, rt := testWorld(t, 2)
	rt.newWindow(w.Rank(0), 8, WinOptions{})
	e := &rt.engines[0]
	for _, tc := range []struct {
		p    fabric.Packet
		want string
	}{
		{fabric.Packet{Src: 1, Kind: fabric.KindLockAtomic, Arg: [4]int64{0, laLocalAcqS}},
			"core: rank 0: lock atomic from 1 on non-flush-mode window 0"},
		{fabric.Packet{Src: 1, Kind: fabric.Kind(250)}, "core: rank 0: unexpected packet kind 250 from 1"},
		{fabric.Packet{Src: 1, Kind: fabric.KindDone, Arg: [4]int64{5}}, "core: rank 0: no window 5"},
	} {
		if got := mustPanic(t, tc.want, func() { e.Deliver(&tc.p) }); got != tc.want {
			t.Errorf("panicked with %q, want %q", got, tc.want)
		}
	}
}

// TestDumpStateNamesEveryMode: the blocked-proc report renders each window
// through its mode — epochs and lock agent, or the flush-lock counters.
func TestDumpStateNamesEveryMode(t *testing.T) {
	w, rt := testWorld(t, 2)
	for _, m := range []Mode{ModeNew, ModeVanilla, ModeFlush} {
		rt.newWindow(w.Rank(0), 8, WinOptions{Mode: m})
	}
	want := "win 0 (mode=new): 0 pending epochs; lock agent excl=-1 shared=0 queued=0\n" +
		"win 1 (mode=vanilla): 0 pending epochs; lock agent excl=-1 shared=0 queued=0\n" +
		"win 2 (mode=flush): liveOps=0 flushes=0; flush-lock gX=0 gS=0 lX=false lS=0 held=0 pending=0"
	if got := rt.engines[0].dumpState(); got != want {
		t.Errorf("dump\n%s\nwant\n%s", got, want)
	}
}
