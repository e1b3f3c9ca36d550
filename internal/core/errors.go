package core

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// MPI-style error semantics (the MPI_ERRORS_ARE_FATAL analog over a faulty
// fabric). Three things can go wrong underneath an epoch:
//
//   - the fabric's failure detector declares a peer unreachable, at the
//     peer's death plus DetectDelay -> ErrRankUnreachable;
//   - a window's configured epoch timeout expires with the epoch still
//     incomplete and no peer provably dead -> ErrTimeout;
//   - a sibling epoch failed and the window's serial pipeline cannot make
//     progress past it -> ErrEpochAborted.
//
// In every case the window aborts its pending epochs: each epoch is marked
// complete-with-error so no waiter deadlocks — blocking synchronizations
// observe the error and panic with the *RMAError (which world.Run converts
// into a returned error via the kernel's %w wrapping) or, on a window created
// with WinOptions.ErrorsReturn, record it for TakeErr (Window.fail), and
// nonblocking closing requests fail so Request.Err reports the cause.

// ErrClass partitions RMA failures, mirroring MPI error classes.
type ErrClass int

const (
	// ErrTimeout: a window's per-epoch operation timeout expired before the
	// epoch's completion conditions were met.
	ErrTimeout ErrClass = iota + 1
	// ErrRankUnreachable: the fabric's failure detector declared a peer this
	// epoch depends on dead (at its death plus DetectDelay).
	ErrRankUnreachable
	// ErrEpochAborted: the epoch was unwound because an earlier epoch on the
	// same window failed (cascade), not because of its own traffic.
	ErrEpochAborted
)

// String names the class like an MPI error class constant.
func (c ErrClass) String() string {
	switch c {
	case ErrTimeout:
		return "ERR_TIMEOUT"
	case ErrRankUnreachable:
		return "ERR_RANK_UNREACHABLE"
	case ErrEpochAborted:
		return "ERR_EPOCH_ABORTED"
	default:
		return fmt.Sprintf("ErrClass(%d)", int(c))
	}
}

// RMAError is the typed failure surfaced by epoch synchronizations. It
// reaches callers two ways: blocking synchronizations panic with it (and
// world.Run returns it, extractable with errors.As), nonblocking closing
// requests carry it in Request.Err.
type RMAError struct {
	Class ErrClass
	Rank  int // rank raising the error
	Win   int64
	Peer  int // implicated peer, -1 when unattributable
	Msg   string
	// Peers is the blocked peer set at abort time: every dependency of the
	// failed epoch that had not yet satisfied its completion condition
	// (the dead peers only, for ErrRankUnreachable). Sorted ascending.
	// Failover layers use it to re-target around the stall instead of
	// guessing; Peer is its first element when attribution is possible.
	Peers []int
}

// Error implements the error interface. The blocked peer set is appended
// when it says more than the Peer attribution already does.
func (e *RMAError) Error() string {
	var s string
	if e.Peer >= 0 {
		s = fmt.Sprintf("core: rank %d win %d: %s (peer %d): %s", e.Rank, e.Win, e.Class, e.Peer, e.Msg)
	} else {
		s = fmt.Sprintf("core: rank %d win %d: %s: %s", e.Rank, e.Win, e.Class, e.Msg)
	}
	if len(e.Peers) > 1 || (len(e.Peers) == 1 && e.Peers[0] != e.Peer) {
		s = fmt.Sprintf("%s; blocked peers %v", s, e.Peers)
	}
	return s
}

// newRMAError builds an error carrying the window's context.
func (w *Window) newRMAError(class ErrClass, peer int, format string, args ...interface{}) *RMAError {
	return &RMAError{
		Class: class,
		Rank:  w.rank.ID,
		Win:   w.id,
		Peer:  peer,
		Msg:   fmt.Sprintf(format, args...),
	}
}

// Err returns the first error that aborted this window's epochs, or nil.
func (w *Window) Err() error {
	if w.err == nil {
		return nil
	}
	return w.err
}

// --- Epoch abort ------------------------------------------------------- //

// abortEpoch unwinds one epoch: it is marked complete-with-error (so the
// serial activation pipeline and all waiters move past it), its recorded
// and in-flight transfers are forgotten, and its closing request fails.
// Runs in kernel (timer / NIC-unreachable) context.
func (w *Window) abortEpoch(ep *Epoch, err *RMAError) {
	if ep.completed {
		return
	}
	ep.err = err
	if w.err == nil {
		w.err = err
	}
	w.eng.ctr.Add(cEpochsAborted, 1)
	// Forget this epoch's transfers: recorded ones must never issue, and
	// in-flight ones toward a dead peer will never complete — neither may
	// keep a flush or quiesce waiting. Request-based ops fail rather than
	// vanish, so a Wait on an RPut/RGet against the aborted epoch observes
	// the cause instead of hanging — in issue order.
	for o := w.detachLive(ep); o != nil; o = o.nextLive {
		if o.req != nil {
			o.req.Fail(err)
		}
	}
	ep.dropRecorded()
	ep.completed = true
	ep.traceEnd()
	ep.closeReq.Fail(err)
	w.dirty = true
	w.rank.Wake.Fire()
}

// abortPending unwinds every not-yet-completed epoch of the window: first
// gets the causing error, the rest cascade as ErrEpochAborted. Outstanding
// nonblocking flushes fail too — their completion counters may depend on
// transfers that will never finish.
//
// Abort is idempotent and re-entrancy safe: a second abort (an epoch
// timeout racing the fabric's unreachable-peer declaration lands here
// twice in the same virtual instant) finds every epoch already completed
// and every request already failed, so the first *RMAError — already
// stored in w.err by abortEpoch — is never clobbered. The pending queue is
// snapshotted before unwinding because failing a closing request runs its
// completion hooks, which may re-enter the window and compact w.epochs in
// place (scanActivate -> pruneCompleted); iterating the live slice could
// skip epochs mid-cascade.
func (w *Window) abortPending(first *Epoch, err *RMAError) {
	w.abortEpoch(first, err)
	cascade := w.newRMAError(ErrEpochAborted, err.Peer,
		"epoch aborted in cascade after %s", err.Class)
	cascade.Peers = err.Peers
	pend := append([]*Epoch(nil), w.epochs...)
	for _, ep := range pend {
		w.abortEpoch(ep, cascade)
	}
	fl := w.flushes
	w.flushes = nil
	for _, f := range fl {
		f.fail(cascade)
	}
}

// TakeErr returns the error the last call on the window recorded under
// WinOptions.ErrorsReturn, or nil, and clears it. A rank has one call in
// flight, so the error waits in the rank's engine until the next call's
// TakeErr.
func (w *Window) TakeErr() error {
	if !w.errorsReturn {
		return nil // errors are fatal: nothing was recorded
	}
	c := &w.eng.call
	err := c.err
	c.err = nil
	return err
}

// fail is the window's error handler, for a call that cannot go on because
// its epoch or window aborted: it panics with err (MPI_ERRORS_ARE_FATAL) or,
// under WinOptions.ErrorsReturn, records err for TakeErr. Either way the call
// makes no further step.
func (w *Window) fail(err error) {
	if !w.errorsReturn {
		panic(err)
	}
	w.eng.call.err = err
}

// waitSync is Section V's definition of every blocking synchronization: its
// nonblocking form, then a wait for the request that form returned
// (mpi.Rank.IssueWait), then any abort error raised (fail). A nonblocking
// form that failed returns no request, and nothing is waited for.
func (w *Window) waitSync(issue func() *mpi.Request) {
	if req := w.rank.IssueWait(issue); req != nil && req.Err() != nil {
		w.fail(req.Err())
	}
}

// --- Timeouts ---------------------------------------------------------- //

// armEpochTimeout starts the window's per-epoch operation timeout for an
// application-closed epoch. No-op when the window has no timeout configured
// (the default), so fault-free runs schedule nothing.
func (w *Window) armEpochTimeout(ep *Epoch) {
	if w.timeout <= 0 || ep.completed {
		return
	}
	ep.timed = true
	w.rank.Kernel().AfterCall(w.timeout, epochTimedOut, ep)
}

// epochTimedOut is the epoch timeout's event: it aborts the epoch, and the
// window's pending epochs behind it, unless the epoch completed first. The
// armed timer held the epoch off the free list until now.
func epochTimedOut(arg any) {
	ep := arg.(*Epoch)
	ep.timed = false
	if ep.completed {
		ep.win.recycle(ep)
		return
	}
	w := ep.win
	w.eng.ctr.Add(cTimeouts, 1)
	w.abortPending(ep, w.classifyStall(ep))
}

// classifyStall attributes a timed-out epoch. The blocked peer set — every
// dependency whose completion condition still fails — is computed first;
// if any of its members is provably unreachable (fabric-declared or
// engine-known dead), the error is ErrRankUnreachable naming the dead
// peers, otherwise a plain ErrTimeout carrying the full blocked set. Either
// way the caller's failover layer gets an explicit target list instead of
// guessing from the message.
func (w *Window) classifyStall(ep *Epoch) *RMAError {
	blocked := w.blockedPeers(ep)
	var dead []int
	for _, p := range blocked {
		if w.eng.peerDead(p) {
			dead = append(dead, p)
		}
	}
	if len(dead) > 0 {
		e := w.newRMAError(ErrRankUnreachable, dead[0],
			"%s epoch seq %d waited %s of virtual time; peer declared unreachable",
			ep.kind, ep.seq, fmtTime(w.timeout))
		e.Peers = dead
		return e
	}
	e := w.newRMAError(ErrTimeout, -1,
		"%s epoch seq %d incomplete after %s of virtual time", ep.kind, ep.seq, fmtTime(w.timeout))
	e.Peers = blocked
	return e
}

// blockedPeers lists the epoch's dependencies that have not yet satisfied
// their completion condition: access-side targets that have not granted,
// still have issued or recorded transfers, or (after the application
// closed the epoch) still owe a done/unlock posting; exposure-side origins
// whose done packet has not arrived. Sorted ascending, deduplicated, self
// excluded — the set failover logic can act on.
func (w *Window) blockedPeers(ep *Epoch) []int {
	var out []int
	for i, n := 0, ep.groupSize(); i < n; i++ {
		p, _ := ep.peerAt(i)
		if p == w.rank.ID {
			continue
		}
		s := ep.peers.Peek(p) // zero for an untouched peer: nothing assigned or posted
		blocked := ep.kind.isAccessRole() &&
			(!ep.granted(p) || s.pending > 0 || s.recHead != nil ||
				(ep.closedApp && !s.donePosted))
		if !blocked && ep.kind.isExposureRole() {
			blocked = !s.hasExpose || !w.peer(p).exposureComplete(s.exposeID)
		}
		if blocked {
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

// fmtTime renders a virtual duration for error messages.
func fmtTime(t sim.Time) string {
	if t%sim.Millisecond == 0 {
		return fmt.Sprintf("%dms", t/sim.Millisecond)
	}
	if t%sim.Microsecond == 0 {
		return fmt.Sprintf("%dus", t/sim.Microsecond)
	}
	return fmt.Sprintf("%dns", t)
}

// --- Unreachable-peer propagation -------------------------------------- //

// peerUnreachable runs (in kernel context) when the fabric's failure
// detector declares peer dead to this rank, at the death plus DetectDelay:
// every window aborts the pending epochs that depend on the peer — without
// waiting for a timeout, since the fabric has already proven the peer gone.
func (e *Engine) peerUnreachable(peer int) {
	if e.dead == nil {
		e.dead = make([]bool, e.rt.world.Size())
	}
	if e.dead[peer] {
		return
	}
	e.dead[peer] = true
	for _, w := range e.winList {
		w.impl.abortPeer(w, peer)
	}
	// Wake the rank even when no epoch aborted: a WaitSignal spin on the
	// dead peer has no epoch to fail it and must re-evaluate its predicate.
	e.rank.Wake.Fire()
}

// peerDead reports whether this rank knows peer to be unreachable: the
// declaration has run (peerUnreachable), or the failure detector's deadline
// has passed at this rank's clock and the declaration event is still due.
func (e *Engine) peerDead(peer int) bool {
	if e.dead != nil && e.dead[peer] {
		return true
	}
	return e.rt.world.Net.PeerUnreachable(e.rank.ID, peer)
}

// deadDependency returns a peer in the epoch's dependency set that this
// rank already knows to be unreachable, or -1. Consulted at epoch-open
// time: abortPeer unwinds the epochs that exist when a death is
// declared, but an epoch opened afterwards would wait on the dead peer
// forever — its lock request, grant or done packet is never answered — so
// it must abort at the door. Only e.dead is consulted (not the fabric link
// state): every declaration path funnels through Engine.peerUnreachable,
// and the nil check keeps the fault-free fast path allocation- and
// scan-free.
func (w *Window) deadDependency(ep *Epoch) int {
	dead := w.eng.dead
	if dead == nil {
		return -1
	}
	for i, n := 0, ep.groupSize(); i < n; i++ {
		if p, _ := ep.peerAt(i); p != w.rank.ID && dead[p] {
			return p
		}
	}
	return -1
}

// abortOpenedDead aborts a just-opened epoch that depends on peer p, known
// dead before the epoch existed.
func (w *Window) abortOpenedDead(ep *Epoch, p int) {
	e := w.newRMAError(ErrRankUnreachable, p,
		"%s epoch seq %d opened toward unreachable peer", ep.kind, ep.seq)
	e.Peers = []int{p}
	w.abortPending(ep, e)
}

// abortPeer aborts the window's pending epochs if any of them depends on
// the dead peer. The whole pending queue unwinds — the window's serial
// activation pipeline cannot skip a wedged epoch.
func (newMode) abortPeer(w *Window, peer int) {
	for _, ep := range w.epochs {
		if ep.completed {
			continue
		}
		if ep.inGroup(peer) {
			e := w.newRMAError(ErrRankUnreachable, peer,
				"%s epoch seq %d depends on unreachable peer", ep.kind, ep.seq)
			e.Peers = []int{peer}
			w.abortPending(ep, e)
			return
		}
	}
}
