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
//   - blocking synchronizations only (the refusal table, mode.go).

// openGATS is vanilla-mode Start (EpochAccess) and Post (EpochExposure),
// activated at once (vanilla has no deferral: one epoch at a time). An
// access epoch's ids are assigned immediately but its transfers stay
// recorded until Complete; an exposure's post notifications go out at once,
// as in every modern MPI library.
func (vanillaMode) openGATS(w *Window, kind EpochKind, group []int) {
	if !w.rank.ChargeCall() {
		return
	}
	if ep := w.newGATSEpoch(kind, group); w.enter(ep) {
		w.activate(ep)
	}
}

// Stages of a vanilla closing synchronization (vanillaDrain): the wait a
// pending call had reached (callState.stage; zero is a fresh call).
const (
	drainGrants = iota + 1 // waiting for every target's grant
	drainData              // transfers issued; waiting for remote completion
	drainExpose            // exposure side (and a fence's barrier): every origin's done
	drainEach              // lock-all: each target drained as its grant lands
)

// closeGATS is vanilla-mode Complete (EpochAccess) — the MVAPICH-style
// closing synchronization: wait for every target's post, then issue
// everything, wait for the data, notify — and WaitEpoch (EpochExposure),
// which waits until every origin's done packet has arrived. The epoch is
// closed at the application level and then drained; the repeat of a pending
// call goes straight back to the drain stage it had reached.
func (vanillaMode) closeGATS(w *Window, kind EpochKind) {
	ep, stage := w.eng.call.resume()
	if stage == 0 {
		if !w.rank.ChargeCall() {
			return
		}
		if kind == EpochAccess {
			ep, stage = w.findOpen(EpochAccess, -1), drainGrants
			w.removeOpenAccess(ep)
		} else {
			ep, stage = w.takeOldestExposure(), drainExpose
			ep.closedApp = true
		}
		ep.traceClose()
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
// an abort-blind drain would wait forever. The error is raised after the
// unwind (Window.fail, as in waitSync). It reports whether the drain
// finished cleanly: false means pending or failed. The drain holds ep off the
// free list until it finishes.
func (w *Window) vanillaDrain(ep *Epoch, stage int) bool {
	r, c := w.rank, &w.eng.call
	ep.held = true
	switch stage {
	case drainGrants:
		if !r.WaitUntil("vanilla-grants", func() bool { return ep.err != nil || ep.allGranted() }) {
			c.ep, c.stage = ep, drainGrants
			return false
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
			return false
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
			return false
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
			return false
		}
	}
	if err := ep.err; err != nil {
		w.fail(err)
		return false
	}
	ep.held = false
	w.recycle(ep)
	return true
}

// fence closes the open fence epoch with the staged blocking
// sequence (all-ready, issue, drain, notify, collect) and opens the next
// round unless AssertNoSucceed. The repeat of a call pending in the drain
// resumes the stage it had reached.
func (vanillaMode) fence(w *Window, assert FenceAssert) {
	ep, stage := w.eng.call.resume()
	if stage == 0 {
		if !w.rank.ChargeCall() {
			return
		}
		if ep, stage = w.curFence, drainGrants; ep != nil {
			w.curFence = nil
			ep.traceClose()
			w.removeOpenAccess(ep)
		}
	}
	if ep != nil && !w.vanillaDrain(ep, stage) {
		return
	}
	if assert&AssertNoSucceed == 0 {
		if ep := w.newFenceEpoch(); w.enter(ep) {
			w.activate(ep)
		}
	}
}

// lock opens a lazy lock epoch toward target — or a lazy shared lock on
// every rank, for target -1: nothing is sent yet. The refusal table keeps
// NOCHECK out: the lazy lock is the whole epoch, so there is no lock-free
// path.
func (vanillaMode) lock(w *Window, target int, exclusive, _ bool) {
	if !w.rank.ChargeCall() {
		return
	}
	w.list(w.newLockEpoch(target, exclusive, false))
}

// unlock fulfils the whole lazy lock epoch toward target — or the
// lock-all epoch, for target -1: request the lock, wait for the grant, issue
// the recorded transfers, drain them, release. Like closeGATS, the repeat
// of a pending call goes straight back to the drain stage it had reached.
//
// The lock-all epoch is drained incrementally (drainEach): each target's
// transfers are issued the moment its grant arrives and its unlock is sent
// as soon as they drain, without waiting for the remaining grants. Holding
// every granted lock while blocked on the rest is a hold-and-wait pattern
// that deadlocks against concurrent exclusive locks; real lazy
// implementations acquire and release per target for exactly this reason.
func (vanillaMode) unlock(w *Window, target int) {
	ep, stage := w.eng.call.resume()
	if stage == 0 {
		if !w.rank.ChargeCall() {
			return
		}
		ep, stage = w.findOpen(lockKind(target), target), drainGrants
		if target == -1 {
			stage = drainEach
		}
		ep.traceClose()
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
	ep.traceActivate()
	w.requestAccess(ep)
	w.traceArrivals()
}

// forceIssue pushes the lazy passive epochs covering target (-1:
// every target) far enough for a blocking flush: acquire the lock(s) and
// issue what is recorded. It reports false when the call is pending in an
// epoch's grant wait; the repeat resumes at that epoch (from; nil: the
// first), never re-sweeping a wait it had already passed.
func (vanillaMode) forceIssue(w *Window, target int, from *Epoch) bool {
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

// admit records the op and issues it only if its target is already ready and
// nothing older toward it is recorded (MVAPICH's in-epoch overlap for
// GATS/fence, Section VIII-A); else the batch waits for the closing call.
func (vanillaMode) admit(w *Window, ep *Epoch, o *rmaOp) {
	ep.record(o)
	if ep.activated && ep.peers.Find(o.target).recHead == o {
		w.eng.issueBucket(ep, o.target)
	}
}
