package core

// Vanilla mode reproduces the MVAPICH 2-1.9 behaviour the paper evaluates
// against (Section VIII):
//
//   - lazy passive-target locks: "the locking attempt, and consequently
//     the whole epoch, is not internally fulfilled until MPI_WIN_UNLOCK is
//     invoked at the application level" — hence no in-epoch overlapping,
//     but also immunity to Late Unlock;
//   - deferred transfers everywhere: "after it reaches its epoch-closing
//     routine, MVAPICH waits for all internode targets to be ready before
//     issuing communication to any internode target";
//   - blocking synchronizations only.

// vanillaActivate registers and activates an epoch outside the deferred
// queue machinery (vanilla has no deferral: one epoch at a time).
func (w *Window) vanillaActivate(ep *Epoch) {
	w.emitEpoch(traceOpen, ep)
	w.epochs = append(w.epochs, ep)
	if p := w.deadDependency(ep); p >= 0 {
		w.abortOpenedDead(ep, p)
		return
	}
	w.activate(ep)
}

// vanillaOpen is vanilla-mode Start (EpochAccess) and Post (EpochExposure).
// An access epoch's ids are assigned immediately but its transfers stay
// recorded until Complete; an exposure's post notifications go out at once,
// as in every modern MPI library.
func (w *Window) vanillaOpen(kind EpochKind, group []int) {
	if !w.rank.ChargeCall() {
		return
	}
	w.vanillaActivate(w.newGATSEpoch(kind, group))
}

// Stages of a vanilla closing synchronization (vanillaDrain): the wait a
// pending call had reached (callState.stage; zero is a fresh call).
const (
	drainGrants = iota + 1 // waiting for every target's grant
	drainData              // transfers issued; waiting for remote completion
	drainExpose            // exposure side (and a fence's barrier): every origin's done
	drainEach              // lock-all: each target drained as its grant lands
)

// vanillaClose is vanilla-mode Complete (EpochAccess) — the MVAPICH-style
// closing synchronization: wait for every target's post, then issue
// everything, wait for the data, notify — and WaitEpoch (EpochExposure),
// which waits until every origin's done packet has arrived. The epoch is
// closed at the application level and then drained; the repeat of a pending
// call goes straight back to the drain stage it had reached.
func (w *Window) vanillaClose(kind EpochKind) {
	ep, stage := w.eng.call.resume()
	if stage == 0 {
		if !w.rank.ChargeCall() {
			return
		}
		if kind == EpochAccess {
			ep, stage = w.findOpenGATSAccess(), drainGrants
			w.emitEpoch(traceClose, ep)
			w.removeOpenAccess(ep)
		} else {
			ep, stage = w.takeOldestExposure(), drainExpose
			w.emitEpoch(traceClose, ep)
			ep.closedApp = true
		}
		w.armEpochTimeout(ep)
	}
	w.vanillaDrain(ep, stage)
}

// vanillaDrain runs the waits of a vanilla closing synchronization from
// stage on: the access side goes through drainGrants and drainData, a fence
// (both roles) on through drainExpose, the exposure side is drainExpose
// alone and a lock-all close drainEach alone. A stage transition falls
// through into the next stage's progress sweep, as consecutive waits do; a
// pending wait saves its epoch and stage in the call state.
//
// Every stage's predicate admits ep.err: an abort (epoch timeout or
// dead-peer declaration) completes the epoch without ever satisfying the
// healthy-path condition — grants from a dead lock agent never arrive — so
// an abort-blind drain would wait forever. The error surfaces as a panic
// after the unwind (the errors-are-fatal analog, same as waitSync).
func (w *Window) vanillaDrain(ep *Epoch, stage int) {
	r, c := w.rank, &w.eng.call
	switch stage {
	case drainGrants:
		if !r.WaitUntil("vanilla-grants", func() bool { return ep.err != nil || ep.allGranted() }) {
			c.ep, c.stage = ep, drainGrants
			return
		}
		if ep.err != nil {
			break
		}
		w.eng.issueReady(ep, anyNode)
		fallthrough
	case drainData:
		if !r.WaitUntil("vanilla-data", func() bool {
			return ep.err != nil || (ep.pendingAll == 0 && ep.recLive == 0)
		}) {
			c.ep, c.stage = ep, drainData
			return
		}
		if ep.err != nil {
			break
		}
		ep.closedApp = true
		ep.postDones()
		ep.maybeComplete()
		if ep.kind != EpochFence {
			break
		}
		fallthrough
	case drainExpose:
		if !r.WaitUntil("vanilla-wait", func() bool { return ep.err != nil || ep.exposureSideDone() }) {
			c.ep, c.stage = ep, drainExpose
			return
		}
		if ep.err == nil {
			ep.maybeComplete()
		}
	case drainEach:
		if !r.WaitUntil("vanilla-lockall-drain", func() bool {
			if ep.err != nil {
				return true
			}
			w.eng.issueReady(ep, anyNode)
			ep.postDones()
			ep.maybeComplete()
			return ep.completed
		}) {
			c.ep, c.stage = ep, drainEach
			return
		}
	}
	if err := ep.err; err != nil {
		panic(err)
	}
}

// vanillaFence closes the open fence epoch with the staged blocking
// sequence (all-ready, issue, drain, notify, collect) and opens the next
// round unless AssertNoSucceed. The repeat of a call pending in the drain
// resumes the stage it had reached.
func (w *Window) vanillaFence(assert FenceAssert) {
	ep, stage := w.eng.call.resume()
	if stage == 0 {
		if !w.rank.ChargeCall() {
			return
		}
		if ep, stage = w.curFence, drainGrants; ep != nil {
			w.curFence = nil
			w.emitEpoch(traceClose, ep)
			w.removeOpenAccess(ep)
		}
	}
	if ep != nil {
		if w.vanillaDrain(ep, stage); w.rank.Pending() {
			return
		}
	}
	if assert&AssertNoSucceed == 0 {
		ep := newEpoch(w, EpochFence)
		w.curFence = ep
		w.openAccess = append(w.openAccess, ep)
		w.vanillaActivate(ep)
	}
}

// vanillaLock opens a lazy lock epoch toward target — or a lazy shared lock
// on every rank, for target -1: nothing is sent yet.
func (w *Window) vanillaLock(target int, exclusive bool) {
	if !w.rank.ChargeCall() {
		return
	}
	kind := EpochLockAll
	if target != -1 {
		kind = EpochLock
	}
	ep := newEpoch(w, kind)
	ep.shared = !exclusive
	if target != -1 {
		ep.setGroup([]int{target})
	}
	w.emitEpoch(traceOpen, ep)
	w.openAccess = append(w.openAccess, ep)
	w.epochs = append(w.epochs, ep)
}

// vanillaUnlock fulfils the whole lazy lock epoch toward target — or the
// lock-all epoch, for target -1: request the lock, wait for the grant, issue
// the recorded transfers, drain them, release. Like vanillaClose, the repeat
// of a pending call goes straight back to the drain stage it had reached.
//
// The lock-all epoch is drained incrementally (drainEach): each target's
// transfers are issued the moment its grant arrives and its unlock is sent
// as soon as they drain, without waiting for the remaining grants. Holding
// every granted lock while blocked on the rest is a hold-and-wait pattern
// that deadlocks against concurrent exclusive locks; real lazy
// implementations acquire and release per target for exactly this reason.
func (w *Window) vanillaUnlock(target int) {
	ep, stage := w.eng.call.resume()
	if stage == 0 {
		if !w.rank.ChargeCall() {
			return
		}
		if target == -1 {
			ep, stage = w.findOpenLock(-1, EpochLockAll), drainEach
		} else {
			ep, stage = w.findOpenLock(target, EpochLock), drainGrants
		}
		w.emitEpoch(traceClose, ep)
		w.removeOpenAccess(ep)
		w.vanillaLockActivate(ep)
		w.armEpochTimeout(ep)
		if stage == drainEach {
			ep.closedApp = true // each target's unlock goes out as it drains
		}
	}
	w.vanillaDrain(ep, stage)
}

// vanillaLockActivate lazily activates a lock(-all) epoch if needed.
func (w *Window) vanillaLockActivate(ep *Epoch) {
	if ep.activated || ep.completed {
		return
	}
	ep.activated = true
	if p := w.deadDependency(ep); p >= 0 {
		// Lazy activation discovers the dead peer only now (the lock call
		// itself sent nothing); abort instead of requesting a lock from a
		// dead agent. The caller's drain unwinds on ep.err.
		w.abortOpenedDead(ep, p)
		return
	}
	w.emitEpoch(traceActivate, ep)
	w.requestAccess(ep)
}

// vanillaForceIssue pushes the lazy passive epochs covering target (-1:
// every target) far enough for a blocking flush: acquire the lock(s) and
// issue what is recorded. It reports false when the call is pending in an
// epoch's grant wait; the repeat resumes at that epoch (from; nil: the
// first), never re-sweeping a wait it had already passed.
func (w *Window) vanillaForceIssue(target int, from *Epoch) bool {
	for _, ep := range w.openAccess {
		if from != nil && ep != from {
			continue
		}
		from = nil
		if ep.kind != EpochLock && ep.kind != EpochLockAll {
			continue
		}
		if target != -1 && !ep.coversTarget(target) {
			continue
		}
		w.vanillaLockActivate(ep)
		if !w.rank.WaitUntil("vanilla-flush-grants", func() bool { return ep.err != nil || ep.allGranted() }) {
			w.eng.call.ep, w.eng.call.stage = ep, flushGrants
			return false
		}
		if ep.err == nil { // flushWait's own err check surfaces an abort
			w.eng.issueReady(ep, anyNode)
		}
	}
	return true
}
