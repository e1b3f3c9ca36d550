package core

import (
	"fmt"
	"strings"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// ModeFlush: the epochless passive-target design of Gerstenberger et al.
// (foMPI, "Enabling Highly-Scalable Remote Memory Access Programming with
// MPI-3 One Sided") and the lock_all+flush idiom of Schuchart/Gracia ("Quo
// Vadis MPI RMA?").
//
// Two pieces replace the epoch machinery:
//
//   - a perpetual, always-granted internal epoch (flushState.ep) that every RMA
//     call attaches to: addOp skips recording entirely and hands the op to
//     the NIC at call time, so completion is tracked purely by the live list and
//     the op age stamps — exactly the counters the flush family rides;
//   - foMPI's scalable global/local lock protocol: one global counter pair
//     at a master rank (X = exclusive-lock intents, S = lock_all holders)
//     and one local counter pair at every target (lX = exclusive holder,
//     lS = shared holders), manipulated with conditional remote atomics
//     executed in the target's NIC context. A shared Lock(t) is a single
//     local atomic at t; an exclusive Lock(t) is global-then-local; LockAll
//     is a single global atomic — no request ever serializes through the
//     GATS-style queued lock agent.
//
// Simplification kept deliberately: a failed conditional atomic retries with
// deterministic exponential backoff instead of foMPI's add-and-revert
// sequences; the two-level exclusion structure (exclusive vs lock_all
// globally, exclusive vs everything per target) is identical. Locks provide
// mutual exclusion only — they never gate transfer issue (the separate-
// memory-model relaxation the epochless idiom is built on), so the memory-
// consistency tool remains the flush family.

// Conditional-atomic codes of the lock protocol (fabric packet Arg[1]).
const (
	laGlobalAcqX int64 = iota + 1 // X++ iff S == 0 (exclusive intent)
	laGlobalRelX                  // X--
	laGlobalAcqS                  // S++ iff X == 0 (lock_all)
	laGlobalRelS                  // S--
	laLocalAcqX                   // lX = 1 iff lX == 0 && lS == 0
	laLocalRelX                   // lX = 0
	laLocalAcqS                   // lS++ iff lX == 0
	laLocalRelS                   // lS--
)

// flushState is the flush mode's implementation (mode.go): the perpetual
// epoch, the lock counters this rank hosts (local always; global only on the
// master), and its origin-side held locks and in-flight protocol operations.
type flushState struct {
	newMode
	w  *Window
	ep *Epoch // the perpetual epoch every RMA call joins

	// Hosted counters, manipulated in NIC context by remote atomics.
	gX, gS int  // global pair (meaningful on the master only)
	lX     bool // local exclusive holder present
	lS     int  // local shared holders

	// Origin-side state.
	holds   map[int]holdKind     // per target: the lock this origin holds on it
	lockAll bool                 // lock_all held
	pending map[*lockOp]struct{} // in-flight protocol operations

	// master is the rank hosting this window's global counter pair
	// (WinOptions.FlushMaster; identical on every rank by collectivity).
	master int
}

// holdKind is how an origin holds one target's lock.
type holdKind uint8

const (
	holdShared  holdKind = iota + 1 // granted shared
	holdExcl                        // granted exclusive
	holdNoCheck                     // MPI_MODE_NOCHECK pseudo-lock (no protocol)
)

// newFlushState builds a freshly created window's flush-mode state.
func newFlushState(w *Window, master int) *flushState {
	w.checkTarget(master, "FlushMaster")
	// The perpetual epoch is noCheck and never activated through the epoch
	// pipeline, so its slot table stays sparse: one slot per target this
	// rank actually communicates with, never O(n) per window per rank.
	return &flushState{
		w: w,
		ep: &Epoch{win: w, kind: EpochLockAll, seq: -1, shared: true,
			noCheck: true, activated: true},
		holds:   make(map[int]holdKind),
		pending: make(map[*lockOp]struct{}),
		master:  master,
	}
}

// lockOp is one origin-side lock-protocol operation (an acquire or release,
// possibly two-phase). It travels as the payload of the protocol's atomic
// packets so the response handler finds its continuation without lookup, and
// owns the request its caller waits on.
type lockOp struct {
	fm       *flushState
	req      mpi.Request
	target   int   // -1 for lock_all
	release  int64 // releases: the atomic to send once the flush completes
	retry    int64 // the failed conditional atomic a backoff timer resends
	attempt  int   // consecutive failed conditional atomics (backoff input)
	finished bool
}

// newLockOp registers a protocol operation toward target (-1: lock_all)
// whose release code, for a release, is the atomic it ends with.
func (fm *flushState) newLockOp(target int, release int64) *lockOp {
	lo := &lockOp{fm: fm, target: target, release: release}
	lo.req.Init(fm.w.rank, nil, nil)
	fm.pending[lo] = struct{}{}
	return lo
}

// atomDst resolves the rank hosting the counter an atomic code addresses.
func (lo *lockOp) atomDst(code int64) int {
	switch code {
	case laGlobalAcqX, laGlobalRelX, laGlobalAcqS, laGlobalRelS:
		return lo.fm.master
	}
	return lo.target
}

// sendAtom issues one conditional atomic. Self-hosted counters are applied
// inline (as notify applies a self lock request); remote ones ride a KindLockAtomic
// packet and come back as KindLockAtomicResp.
func (fm *flushState) sendAtom(lo *lockOp, code int64) {
	w := fm.w
	me := w.rank.ID
	dst := lo.atomDst(code)
	if dst == me {
		lo.advance(code, fm.applyAtomic(code))
		return
	}
	p := w.eng.rt.world.Net.AllocPacketAt(me)
	p.Src, p.Dst, p.Kind, p.Size = me, dst, fabric.KindLockAtomic, ctrlBytes
	p.Payload = lo
	p.Arg = [4]int64{w.id, code, 0, 0}
	w.rank.Send(p)
}

// applyAtomic executes one atomic against the counters THIS rank hosts. It
// runs in NIC context on packet delivery (inherently serialized per rank),
// or inline for self-targeted atomics. Conditional acquires report success;
// releases always succeed and police underflow.
func (fm *flushState) applyAtomic(code int64) bool {
	switch code {
	case laGlobalAcqX:
		if fm.gS > 0 {
			return false
		}
		fm.gX++
		return true
	case laGlobalRelX:
		if fm.gX <= 0 {
			fm.w.raisef("flush-lock protocol released a global exclusive intent it never held")
		}
		fm.gX--
		return true
	case laGlobalAcqS:
		if fm.gX > 0 {
			return false
		}
		fm.gS++
		return true
	case laGlobalRelS:
		if fm.gS <= 0 {
			fm.w.raisef("flush-lock protocol released a lock_all it never held")
		}
		fm.gS--
		return true
	case laLocalAcqX:
		if fm.lX || fm.lS > 0 {
			return false
		}
		fm.lX = true
		return true
	case laLocalRelX:
		if !fm.lX {
			fm.w.raisef("flush-lock protocol released a local exclusive it never held")
		}
		fm.lX = false
		return true
	case laLocalAcqS:
		if fm.lX {
			return false
		}
		fm.lS++
		return true
	case laLocalRelS:
		if fm.lS <= 0 {
			fm.w.raisef("flush-lock protocol released a local shared it never held")
		}
		fm.lS--
		return true
	}
	fm.w.raisef("unknown flush-lock atomic code %d", code)
	return false
}

// backoff is the deterministic retry delay after attempt consecutive failed
// conditional atomics: the fabric's base latency, doubled up to 64x.
func (fm *flushState) backoff(attempt int) sim.Time {
	base := fm.w.eng.rt.world.Net.Cfg.Alpha
	if base <= 0 {
		base = sim.Microsecond
	}
	if attempt > 6 {
		attempt = 6
	}
	return base << uint(attempt)
}

// advance is the lockOp state machine, driven by atomic outcomes. It runs in
// origin NIC context (remote responses) or inline (self-hosted counters).
func (lo *lockOp) advance(code int64, ok bool) {
	fm := lo.fm
	if lo.finished {
		return // aborted underneath (failPending) — drop the stale response
	}
	if !ok {
		lo.backOff(code)
		return
	}
	lo.attempt = 0
	switch code {
	case laGlobalAcqX:
		// Exclusive phase 2: the per-target counter.
		fm.sendAtom(lo, laLocalAcqX)
	case laLocalAcqX:
		fm.holds[lo.target] = holdExcl
		lo.finish()
	case laLocalAcqS:
		fm.holds[lo.target] = holdShared
		lo.finish()
	case laGlobalAcqS:
		fm.lockAll = true
		lo.finish()
	case laLocalRelX:
		// Exclusive release phase 2: drop the global intent.
		fm.sendAtom(lo, laGlobalRelX)
	case laGlobalRelX, laLocalRelS, laGlobalRelS:
		lo.finish()
	}
}

// backOff reissues a failed conditional atomic after the backoff delay. An
// operation has one atomic in flight, so one retry field serves it.
func (lo *lockOp) backOff(code int64) {
	fm := lo.fm
	d := fm.backoff(lo.attempt)
	lo.attempt++
	lo.retry = code
	fm.w.rank.Kernel().AfterCall(d, resendAtom, lo)
}

// resendAtom is a backoff timer's event: the retry goes out unless the
// operation ended or the window aborted meanwhile.
func resendAtom(arg any) {
	lo := arg.(*lockOp)
	if lo.finished || lo.fm.w.err != nil {
		return
	}
	lo.fm.sendAtom(lo, lo.retry)
}

// finish completes the operation's request successfully.
func (lo *lockOp) finish() {
	lo.finished = true
	delete(lo.fm.pending, lo)
	lo.req.Complete()
	lo.fm.w.rank.Wake.Fire()
}

// fail completes the operation's request with err.
func (lo *lockOp) fail(err error) {
	if lo.finished {
		return
	}
	lo.finished = true
	delete(lo.fm.pending, lo)
	lo.req.Fail(err)
}

// ilock starts acquiring target's lock (-1: lock_all) by the protocol above;
// the request completes when it is held. A NOCHECK pseudo-lock sends
// nothing: the caller vouches that no conflicting lock exists.
func (fm *flushState) ilock(w *Window, target int, exclusive, noCheck bool) *mpi.Request {
	w.checkLive()
	if !w.rank.ChargeCall() {
		return nil
	}
	if w.err != nil {
		return mpi.NewFailedRequest(w.rank, w.err)
	}
	code, dep := laGlobalAcqS, w.rank.ID // lock_all: the master alone
	switch {
	case target == -1:
		if fm.lockAll {
			w.raisef("flush mode: lock_all is already held")
		}
	case fm.holds[target] != 0:
		w.raisef("flush mode: target %d is already locked by this origin", target)
	case noCheck:
		fm.holds[target] = holdNoCheck
		return mpi.NewCompletedRequest(w.rank)
	case exclusive:
		code, dep = laGlobalAcqX, target
	default:
		code, dep = laLocalAcqS, target
	}
	if err := fm.deadAcquire(dep); err != nil {
		return mpi.NewFailedRequest(w.rank, err)
	}
	lo := fm.newLockOp(target, 0)
	fm.sendAtom(lo, code)
	return &lo.req
}

// iunlock starts the release of the lock held on target, or of lock_all
// when target is -1. MPI's unlock implies remote completion of the epochless
// "epoch" toward the target, so the release atomic is chained behind an
// internal flush toward target (all targets), which continues the protocol
// op when it completes (flushReq.lo). The embedded flush carries its own
// ChargeCall — a flush-mode unlock really does pay two call overheads — so
// the repeat of a call pending there finds its registered protocol op in the
// call state.
func (fm *flushState) iunlock(w *Window, target int) *mpi.Request {
	c := &w.eng.call
	lo := c.lo
	if lo == nil {
		w.checkLive()
		if !w.rank.ChargeCall() {
			return nil
		}
		if w.err != nil {
			return mpi.NewFailedRequest(w.rank, w.err)
		}
		// The origin's hold ends at the unlock call (a fresh Lock on the same
		// target is legal right away — its conditional atomics simply retry
		// until the in-flight release lands at the counters).
		var code int64
		switch hold := fm.holds[target]; {
		case target == -1:
			if !fm.lockAll {
				w.raisef("flush mode: unlock_all without holding lock_all")
			}
			fm.lockAll = false
			code = laGlobalRelS
		case hold == 0:
			w.raisef("flush mode: unlocking target %d without holding its lock", target)
		case hold == holdNoCheck:
			delete(fm.holds, target)
			return mpi.NewCompletedRequest(w.rank)
		default:
			delete(fm.holds, target)
			code = laLocalRelS
			if hold == holdExcl {
				code = laLocalRelX
			}
		}
		lo = fm.newLockOp(target, code)
	}
	c.lo = nil
	if !w.rank.ChargeCall() {
		c.lo = lo
		return nil
	}
	if w.err != nil {
		lo.fail(w.err) // the flush fails on a poisoned window, and the release with it
	} else {
		w.addFlush(flushReq{lo: lo, target: target})
	}
	return &lo.req
}

// accessEpoch is the perpetual epoch: the window's lifetime is one passive span.
func (fm *flushState) accessEpoch(*Window, int) *Epoch { return fm.ep }

// admit hands the op to the NIC at call time: no recording, no gating.
func (fm *flushState) admit(w *Window, _ *Epoch, o *rmaOp) { w.eng.issue(o) }

// requirePassive admits every flush: the window lifetime is one passive span.
func (fm *flushState) requirePassive(*Window, int) {}

// quiesced: no op or lock operation is in flight, or the window aborted.
func (fm *flushState) quiesced(w *Window) bool {
	return w.err != nil || (w.liveHead == nil && len(fm.pending) == 0)
}

// dump renders the window's ops and lock-protocol state.
func (fm *flushState) dump(w *Window, b *strings.Builder) {
	live := 0
	for o := w.liveHead; o != nil; o = o.nextLive {
		live++
	}
	fmt.Fprintf(b, "win %d (mode=%s): liveOps=%d flushes=%d; flush-lock gX=%d gS=%d lX=%t lS=%d held=%d pending=%d\n",
		w.id, w.Mode(), live, len(w.flushes), fm.gX, fm.gS, fm.lX, fm.lS, fm.held(), len(fm.pending))
}

// held counts the locks this origin currently holds (diagnostics/fuzz).
func (fm *flushState) held() int {
	n := len(fm.holds)
	if fm.lockAll {
		n++
	}
	return n
}

// deadAcquire rejects a lock acquisition whose protocol would wait on a
// rank this origin already knows unreachable (the target's local counters
// or the master's global pair). Unlike abortPeer this does NOT poison
// the window: a refused acquisition wedges nothing, so the window stays
// usable toward live peers — the failure domain stays as small as the
// request.
func (fm *flushState) deadAcquire(target int) *RMAError {
	w := fm.w
	dead := w.eng.dead
	if dead == nil {
		return nil
	}
	for _, p := range [2]int{target, fm.master} {
		if p != w.rank.ID && dead[p] {
			err := w.newRMAError(ErrRankUnreachable, p,
				"lock acquisition toward unreachable peer")
			err.Peers = []int{p}
			return err
		}
	}
	return nil
}

// failPending fails every in-flight lock-protocol operation (window abort).
func (fm *flushState) failPending(err *RMAError) {
	for lo := range fm.pending {
		lo.finished = true
		lo.req.Fail(err)
	}
	fm.pending = make(map[*lockOp]struct{})
}

// abortPeer poisons the window when the fabric declares a peer it depends
// on (dependsOn) unreachable: the perpetual epoch aborts, and so do the
// outstanding flushes and lock operations, so blocked callers panic with
// ErrRankUnreachable instead of waiting forever. A window that does not
// depend on the peer stays healthy — what a serving scenario's per-home
// windows recover around.
func (fm *flushState) abortPeer(w *Window, peer int) {
	if w.err != nil || !fm.dependsOn(peer) {
		return // already poisoned (the first abort did the unwinding), or unaffected
	}
	err := w.newRMAError(ErrRankUnreachable, peer,
		"flush-mode window depends on unreachable peer")
	err.Peers = []int{peer}
	w.abortEpoch(fm.ep, err)
	for _, f := range w.flushes {
		f.fail(err)
	}
	w.flushes = nil
	fm.failPending(err)
}

// dependsOn reports whether the flush-mode window currently depends on
// peer: in-flight transfers toward it, a held or in-flight lock involving
// it, lock_all (which spans every peer by construction), or the global-
// counter master (every future acquire must reach it).
func (fm *flushState) dependsOn(peer int) bool {
	if peer == fm.master || fm.lockAll {
		return true
	}
	if fm.holds[peer] != 0 {
		return true
	}
	for lo := range fm.pending {
		if lo.target == peer {
			return true
		}
	}
	for o := fm.w.liveHead; o != nil; o = o.nextLive {
		if o.target == peer {
			return true
		}
	}
	return false
}
