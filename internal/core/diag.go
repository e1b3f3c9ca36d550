package core

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Diagnostics: unified panic context and the epoch-state dump hooked into
// the simulation kernel's deadlock/watchdog reports.
//
// Every abort raised from window or engine context goes through raisef so
// the message always carries "core: rank R win W: ..." (or "core: rank R:
// ..." when no window is in scope) — without that context a fuzzer failure
// on a 16-rank run is unattributable.

// raisef panics with full window context: "core: rank R win W: ...".
func (w *Window) raisef(format string, args ...interface{}) {
	panic(fmt.Sprintf("core: rank %d win %d: ", w.rank.ID, w.id) + fmt.Sprintf(format, args...))
}

// raisef panics with engine (rank) context: "core: rank R: ...".
func (e *Engine) raisef(format string, args ...interface{}) {
	panic(fmt.Sprintf("core: rank %d: ", e.rank.ID) + fmt.Sprintf(format, args...))
}

// registerDiagnostics hooks the runtime into the kernel's deadlock and
// watchdog reports: when a rank's proc is blocked, the report includes a
// dump of every pending epoch and the lock-agent state of each of the
// rank's windows.
func (rt *Runtime) registerDiagnostics() {
	rt.world.AddDiagProvider(func(p *sim.Proc) string {
		for i := range rt.engines {
			if e := &rt.engines[i]; e.rank.Proc == p {
				return e.dumpState()
			}
		}
		return ""
	})
}

// dumpState renders this rank's RMA state for a blocked-proc report.
func (e *Engine) dumpState() string {
	var b strings.Builder
	for _, w := range e.winList {
		w.impl.dump(w, &b)
	}
	return strings.TrimRight(b.String(), "\n")
}

// dump renders the window's pending epochs and lock-agent state.
func (newMode) dump(w *Window, b *strings.Builder) {
	excl, shared, queued := w.agent.holders()
	fmt.Fprintf(b, "win %d (mode=%s): %d pending epochs; lock agent excl=%d shared=%d queued=%d\n",
		w.id, w.Mode(), len(w.epochs), excl, shared, queued)
	for _, ep := range w.epochs {
		fmt.Fprintf(b, "  %s recLive=%d pending=%d done=%d/%d\n",
			ep, ep.recLive, ep.pendingAll, ep.doneCount, ep.doneTargetCount())
		if ep.kind.isAccessRole() && ep.activated {
			var ungranted []int
			for i, n := 0, ep.groupSize(); i < n; i++ {
				if t, _ := ep.peerAt(i); !ep.granted(t) {
					ungranted = append(ungranted, t)
				}
			}
			if len(ungranted) > 0 {
				fmt.Fprintf(b, "    awaiting grants from %v\n", ungranted)
			}
		}
	}
}

// --- Introspection accessors (invariant checking, internal/fuzz) -------- //

// PeerCounterState is a snapshot of the ω_r triple toward one peer, the
// received-done high-water mark and the user-signal counters. On the signal
// transport G and DoneRecv travel as WinOptions.SignalBase plus the count.
type PeerCounterState struct {
	A        int64 // accesses activated toward the peer (a_l)
	E        int64 // exposures/lock grants opened toward the peer (e_l)
	G        int64 // accesses granted by the peer (g, remote-updated)
	DoneRecv int64 // highest access id whose done packet arrived
	UserRecv int64 // user signals received from the peer
	UserSent int64 // user signals sent toward the peer
}

// PeerState returns this window's counter snapshot toward peer.
func (w *Window) PeerState(peer int) PeerCounterState {
	c := w.peers.Peek(w.checkTarget(peer, "PeerState peer"))
	s := PeerCounterState{A: c.a, E: c.e, G: c.g, DoneRecv: c.doneRecv}
	if w.user != nil {
		u := w.user.Peek(peer)
		s.UserRecv, s.UserSent = u.in, u.out
	}
	return s
}

// LockAgentState reports the target-side lock state of this window: the
// exclusive holder (-1 if none), the shared-holder count and the queue depth.
func (w *Window) LockAgentState() (exclHolder, sharedCount, queued int) {
	return w.agent.holders()
}

// FlushLockState snapshots a flush-mode window's scalable-lock protocol
// counters: the counters this rank hosts (Global* meaningful on the master
// rank only) and its origin-side held/in-flight bookkeeping. Zero value on
// non-flush windows.
type FlushLockState struct {
	GlobalX int  // exclusive-lock intents (master-hosted)
	GlobalS int  // lock_all holders (master-hosted)
	LocalX  bool // local exclusive holder present
	LocalS  int  // local shared holders
	Held    int  // locks this origin currently holds (incl. lock_all)
	Pending int  // in-flight lock-protocol operations
}

// FlushState returns this window's flush-mode lock-protocol snapshot.
func (w *Window) FlushState() FlushLockState {
	fm, isFlush := w.impl.(*flushState)
	if !isFlush {
		return FlushLockState{}
	}
	return FlushLockState{
		GlobalX: fm.gX, GlobalS: fm.gS,
		LocalX: fm.lX, LocalS: fm.lS,
		Held: fm.held(), Pending: len(fm.pending),
	}
}

// PendingEpochs returns the number of not-yet-completed epochs.
func (w *Window) PendingEpochs() int {
	w.pruneCompleted()
	return len(w.epochs)
}

// debugFlipReorder, when set, inverts the Section VI-B reorder predicate.
// It exists purely to validate the correctness tooling: a fuzzer that
// cannot detect a flipped activation predicate is not testing anything.
var debugFlipReorder bool

// SetDebugFlipReorder toggles the deliberately-broken reorder predicate.
// Testing hook — never set in production code.
func SetDebugFlipReorder(v bool) { debugFlipReorder = v }

// debugPoisonRetired, when set, makes retirement poison an op (nil epoch,
// invalid class and target) and a freed epoch (nil window, and a closing
// request that panics on Wait and OnComplete) instead of recycling them, so
// anything that still touches a retired op or a freed epoch crashes or trips
// an invariant: the check that retire and recycle free an object only once
// nothing can reach it.
var debugPoisonRetired bool

// SetDebugPoisonRetired toggles poisoning retired ops and freed epochs in
// place of recycling. Testing hook — never set in production code.
func SetDebugPoisonRetired(v bool) { debugPoisonRetired = v }
