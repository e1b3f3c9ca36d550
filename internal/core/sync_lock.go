package core

import (
	"repro/internal/mpi"
)

// lockAgent is the target-side passive-target lock manager of one window.
// For internode requesters it runs in NIC context (modeling the
// network-atomics-based lock designs the paper builds on), so a target that
// never calls MPI still serves its locks; intranode requests arrive through
// the notification FIFO and are served by the target's engine in step 6.
//
// Grant policy is strict FIFO with shared batching: the head of the queue
// is granted when compatible with the current holders, and a granted shared
// head pulls every consecutive shared requester behind it.
type lockAgent struct {
	w           *Window
	exclHolder  int // rank holding the exclusive lock, or -1
	sharedCount int
	queue       []lockWaiter
}

type lockWaiter struct {
	origin int
	shared bool
}

// request enqueues a lock request from origin and advances the grant state.
func (a *lockAgent) request(origin int, shared bool) {
	a.queue = append(a.queue, lockWaiter{origin: origin, shared: shared})
	a.advance()
}

// unlock releases origin's hold and advances the grant state.
func (a *lockAgent) unlock(origin int) {
	switch {
	case a.exclHolder == origin:
		a.exclHolder = -1
	case a.sharedCount > 0:
		a.sharedCount--
	default:
		a.w.raisef("peer %d sent unlock without holding the lock", origin)
	}
	a.advance()
}

// advance grants as many queued requests as the current state allows.
func (a *lockAgent) advance() {
	for len(a.queue) > 0 {
		h := a.queue[0]
		if h.shared {
			if a.exclHolder != -1 {
				return
			}
			a.sharedCount++
		} else {
			if a.exclHolder != -1 || a.sharedCount > 0 {
				return
			}
			a.exclHolder = h.origin
		}
		copy(a.queue, a.queue[1:]) // pop by copy-down: keep the backing array
		a.queue = a.queue[:len(a.queue)-1]
		a.w.eng.ctr.Add(cLockGrants, 1)
		// Granting a lock updates e locally and g remotely, exactly like
		// opening an exposure (Section VII-B).
		id := a.w.peer(h.origin).nextExposureID()
		a.w.eng.notify(a.w, h.origin, chGrant, id)
	}
}

// holders reports the current holder state (for tests/invariants).
func (a *lockAgent) holders() (excl int, shared int, queued int) {
	return a.exclHolder, a.sharedCount, len(a.queue)
}

// --- Application API: passive-target synchronization ------------------- //

// ILock opens, nonblockingly, a passive-target epoch on target's window
// memory. exclusive selects MPI_LOCK_EXCLUSIVE semantics. The returned
// request is pre-completed (epoch-opening routines always exit immediately,
// Section VII-C); the lock acquisition itself proceeds inside the progress
// engine.
func (w *Window) ILock(target int, exclusive bool) *mpi.Request {
	return w.ILockAssert(target, exclusive, false)
}

// ILockAssert is ILock with the MPI_MODE_NOCHECK assertion: when noCheck
// is true the caller guarantees no conflicting lock exists or will be
// requested while this epoch holds the lock, so the implementation skips
// the lock-acquisition protocol entirely — transfers may start at once
// and no unlock packet is sent.
func (w *Window) ILockAssert(target int, exclusive, noCheck bool) *mpi.Request {
	w.allow(EpochLock, true, noCheck)
	w.checkPeers(EpochLock, target)
	return w.impl.ilock(w, target, exclusive, noCheck)
}

// Lock is the blocking form of ILock. Unlike MVAPICH's lazy design, the new
// stack requests the lock right away, enabling in-epoch overlapping.
func (w *Window) Lock(target int, exclusive bool) {
	w.LockAssert(target, exclusive, false)
}

// LockAssert is the blocking form of ILockAssert.
func (w *Window) LockAssert(target int, exclusive, noCheck bool) {
	w.allow(EpochLock, false, noCheck)
	w.checkPeers(EpochLock, target)
	w.impl.lock(w, target, exclusive, noCheck)
}

// IUnlock closes the passive-target epoch toward target nonblockingly: it
// returns at once, and the epoch (lock release included) completes inside
// the progress engine; completion is detected through the returned request.
func (w *Window) IUnlock(target int) *mpi.Request {
	w.allow(EpochLock, true, false)
	w.checkPeers(EpochLock, target)
	return w.impl.iunlock(w, target)
}

// Unlock is the blocking form of IUnlock.
func (w *Window) Unlock(target int) {
	w.allow(EpochLock, false, false)
	w.checkPeers(EpochLock, target)
	w.impl.unlock(w, target)
}

// ILockAll opens a shared lock on every rank of the window, nonblockingly.
func (w *Window) ILockAll() *mpi.Request {
	w.allow(EpochLockAll, true, false)
	return w.impl.ilock(w, -1, false, false)
}

// LockAll is the blocking form of ILockAll.
func (w *Window) LockAll() {
	w.allow(EpochLockAll, false, false)
	w.impl.lock(w, -1, false, false)
}

// IUnlockAll closes the lock-all epoch nonblockingly.
func (w *Window) IUnlockAll() *mpi.Request {
	w.allow(EpochLockAll, true, false)
	return w.impl.iunlock(w, -1)
}

// UnlockAll is the blocking form of IUnlockAll.
func (w *Window) UnlockAll() {
	w.allow(EpochLockAll, false, false)
	w.impl.unlock(w, -1)
}

// ilock opens a lock epoch toward target (-1: a lock-all epoch).
func (newMode) ilock(w *Window, target int, exclusive, noCheck bool) *mpi.Request {
	return w.openEpoch(func() *Epoch { return w.newLockEpoch(target, exclusive, noCheck) })
}

// iunlock closes the lock epoch toward target (-1: the lock-all epoch).
func (newMode) iunlock(w *Window, target int) *mpi.Request {
	return w.closeAccessEpoch(w.findOpen(lockKind(target), target))
}

func (newMode) lock(w *Window, target int, exclusive, noCheck bool) {
	w.waitSync(func() *mpi.Request { return w.impl.ilock(w, target, exclusive, noCheck) })
}

func (newMode) unlock(w *Window, target int) {
	w.waitSync(func() *mpi.Request { return w.impl.iunlock(w, target) })
}

// newLockEpoch creates and registers an application-open lock epoch.
func (w *Window) newLockEpoch(target int, exclusive, noCheck bool) *Epoch {
	ep := newEpoch(w, lockKind(target))
	ep.shared, ep.noCheck = !exclusive, noCheck
	if target != -1 {
		ep.peers.Add(target)
	}
	w.openAccess = append(w.openAccess, ep)
	return ep
}

// lockKind is the kind of a lock epoch toward target: -1 is lock_all.
func lockKind(target int) EpochKind {
	if target == -1 {
		return EpochLockAll
	}
	return EpochLock
}

// findOpen locates the newest application-open access epoch of kind: for a
// single-target lock, the one toward target.
func (w *Window) findOpen(kind EpochKind, target int) *Epoch {
	for i := len(w.openAccess) - 1; i >= 0; i-- {
		if ep := w.openAccess[i]; ep.kind == kind && (kind != EpochLock || ep.inGroup(target)) {
			return ep
		}
	}
	if kind == EpochLock {
		w.raisef("no open lock epoch toward %d", target)
	}
	w.raisef("no open %s epoch", kind)
	return nil
}

// closeAccessEpoch implements the common nonblocking close of access-role
// epochs: attach the closing request, mark the epoch application-closed,
// and let the engine fulfil the rest.
func (w *Window) closeAccessEpoch(ep *Epoch) *mpi.Request {
	if !w.rank.ChargeCall() {
		return nil
	}
	if ep.closedApp {
		w.raisef("%s epoch seq %d closed twice", ep.kind, ep.seq)
	}
	ep.closedApp = true
	ep.traceClose()
	ep.handOutClose()
	w.removeOpenAccess(ep)
	if ep.err != nil {
		// The epoch was aborted before the application closed it: fail the
		// closing request immediately so the waiter unwinds with the cause.
		ep.closeReq.Fail(ep.err)
		return &ep.closeReq
	}
	if ep.activated {
		ep.postDones()
		ep.maybeComplete()
	}
	w.armEpochTimeout(ep)
	return &ep.closeReq
}
