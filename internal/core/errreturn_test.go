package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// abortCell is one blocking call made after the window's epochs aborted: the
// origin (rank 0) makes the open calls toward rank 1 while it lives, computes
// past its death and its declaration, and then makes call. family is the
// refusal table's column the call needs (-1: any mode). raises is false where
// the call meets no aborted epoch and goes on: vanilla opens are lazy, so a
// dead dependency surfaces at the close. cascade marks a call whose epoch
// aborted behind another: its error is the cascade's, not Window.Err.
type abortCell struct {
	name    string
	family  EpochKind
	open    []func(w *Window)
	call    func(w *Window)
	raises  func(m Mode) bool
	cascade bool
}

func always(Mode) bool { return true }

func lazyInVanilla(m Mode) bool { return m != ModeVanilla }

var (
	lock1   = func(w *Window) { w.Lock(1, true) }
	lockAll = func(w *Window) { w.LockAll() }
	start1  = func(w *Window) { w.Start([]int{1}) }
	post1   = func(w *Window) { w.Post([]int{1}) }
	fence   = func(w *Window) { w.Fence(AssertNone) }

	locked, lockedAll = []func(*Window){lock1}, []func(*Window){lockAll}
	started, posted   = []func(*Window){start1}, []func(*Window){post1}
)

// abortCells is every blocking synchronization of a window, plus an RMA call.
var abortCells = []abortCell{
	{"Start", EpochAccess, locked, start1, lazyInVanilla, false},
	{"Complete", EpochAccess, started, func(w *Window) { w.Complete() }, always, false},
	{"Post", EpochExposure, locked, post1, lazyInVanilla, false},
	{"WaitEpoch", EpochExposure, posted, func(w *Window) { w.WaitEpoch() }, always, false},
	{"WaitEpoch-cascade", EpochExposure, []func(*Window){start1, post1}, func(w *Window) { w.WaitEpoch() }, always, true},
	{"TestEpoch", EpochExposure, posted, func(w *Window) { w.TestEpoch() }, always, false},
	{"Fence", EpochFence, []func(*Window){fence}, fence, always, false},
	{"Lock", EpochLock, locked, lock1, lazyInVanilla, false},
	{"Unlock", EpochLock, locked, func(w *Window) { w.Unlock(1) }, always, false},
	{"LockAll", EpochLockAll, lockedAll, lockAll, lazyInVanilla, false},
	{"UnlockAll", EpochLockAll, lockedAll, func(w *Window) { w.UnlockAll() }, always, false},
	{"Flush", EpochLock, locked, func(w *Window) { w.Flush(1) }, always, false},
	{"FlushLocal", EpochLock, locked, func(w *Window) { w.FlushLocal(1) }, always, false},
	{"FlushAll", EpochLockAll, lockedAll, func(w *Window) { w.FlushAll() }, always, false},
	{"FlushLocalAll", EpochLockAll, lockedAll, func(w *Window) { w.FlushLocalAll() }, always, false},
	{"WaitSignal", -1, locked, func(w *Window) { w.WaitSignal(1, 1) }, always, false},
	{"Put", EpochLock, locked, func(w *Window) { w.Put(1, 0, []byte{1}, 1) }, always, false},
}

// abortOutcome is what one run of a cell leaves: the run's error, the error
// the call recorded under ErrorsReturn, the time the call ended — the
// kernel's clock when a panic ended the run — and the origin window's
// counters then.
type abortOutcome struct {
	runErr, callErr error
	at              sim.Time
	stats           counts
}

// runAbortCell runs cell on a 2-rank world whose rank 1 dies at 50 µs and is
// declared dead 20 µs later.
func runAbortCell(t *testing.T, cell abortCell, mode Mode, errorsReturn, tasks bool) abortOutcome {
	t.Helper()
	w := mpi.NewWorld(2, fabric.DefaultConfig())
	w.Net.EnableFaults(fabric.FaultProfile{
		Deaths:      []fabric.RankDeath{{Rank: 1, At: 50 * sim.Microsecond}},
		DetectDelay: 20 * sim.Microsecond,
	})
	rt := NewRuntime(w)
	var o abortOutcome
	o.at = -1
	var origin *Window
	o.runErr = runForm(w, rt, tasks, func(rt *Runtime, r *mpi.Rank) []func() {
		var win *Window
		calls := []func(){func() { win = rt.CreateWindow(r, 8, WinOptions{Mode: mode, ErrorsReturn: errorsReturn}) }}
		if r.ID != 0 {
			return calls
		}
		calls = append(calls, func() { origin = win })
		for _, open := range cell.open {
			calls = append(calls, func() { open(win) })
		}
		return append(calls,
			func() { r.Compute(200 * sim.Microsecond) },
			func() { cell.call(win) },
			func() { o.callErr, o.at, o.stats = win.TakeErr(), r.Now(), win.counters() })
	})
	if o.at < 0 {
		o.at, o.stats = w.K.Now(), origin.counters()
	}
	return o
}

// TestErrorsReturnBothForms: every blocking synchronization, and an RMA call,
// made after the abort, in every legal cell of the refusal table and in both
// rank forms. Errors are fatal by default: the run returns the *RMAError.
// Under ErrorsReturn the call records that same error — its own, a cascade's
// included — at the same virtual time, leaving the window's counters as the
// fatal call left them, and the run goes on.
func TestErrorsReturnBothForms(t *testing.T) {
	for _, mode := range []Mode{ModeNew, ModeVanilla, ModeFlush} {
		for _, cell := range abortCells {
			if cell.family >= 0 && modes[mode].families&(1<<cell.family) == 0 {
				continue
			}
			for _, tasks := range []bool{false, true} {
				name := mode.String() + "/" + cell.name
				fatal := runAbortCell(t, cell, mode, false, tasks)
				var want *RMAError
				switch raises := cell.raises(mode); {
				case raises && !errors.As(fatal.runErr, &want):
					t.Errorf("%s tasks=%t: run error %v, want an *RMAError", name, tasks, fatal.runErr)
					continue
				case !raises && fatal.runErr != nil:
					t.Errorf("%s tasks=%t: the call raised %v; it meets no aborted epoch", name, tasks, fatal.runErr)
					continue
				case cell.cascade && want.Class != ErrEpochAborted:
					t.Errorf("%s tasks=%t: raised %v, want the cascade's ERR_EPOCH_ABORTED", name, tasks, want)
				}
				ret := runAbortCell(t, cell, mode, true, tasks)
				if ret.runErr != nil {
					t.Errorf("%s tasks=%t: under ErrorsReturn the run failed: %v", name, tasks, ret.runErr)
					continue
				}
				if got, _ := ret.callErr.(*RMAError); !reflect.DeepEqual(got, want) {
					t.Errorf("%s tasks=%t: recorded %v, want the fatal error %v", name, tasks, ret.callErr, want)
				}
				if want != nil && (ret.at != fatal.at || !slices.Equal(ret.stats, fatal.stats)) {
					t.Errorf("%s tasks=%t: the call returned at %v with %+v, the fatal one raised at %v with %+v",
						name, tasks, ret.at, ret.stats, fatal.at, fatal.stats)
				}
			}
		}
	}
}
