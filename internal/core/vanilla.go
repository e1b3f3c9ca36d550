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

// Stages of a vanilla closing synchronization (vanillaDrain).
const (
	drainGrants = iota // waiting for every target's grant
	drainData          // transfers issued; waiting for remote completion
	drainExpose        // exposure side: waiting for every origin's done
)

// vanillaClose is vanilla-mode Complete (EpochAccess) — the MVAPICH-style
// closing synchronization: wait for every target's post, then issue
// everything, wait for the data, notify — and WaitEpoch (EpochExposure),
// which waits until every origin's done packet has arrived. The epoch is
// closed at the application level and then drained; the repeat of a pending
// call goes straight back to the drain stage it had reached.
func (w *Window) vanillaClose(kind EpochKind) {
	c := &w.eng.call
	ep, stage := c.ep, c.stage
	if ep == nil {
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
	c.ep = nil
	w.vanillaDrain(ep, stage)
}

// vanillaDrain runs the waits of a vanilla closing synchronization from
// stage on: the access side goes through drainGrants and drainData, the
// exposure side is drainExpose alone. A stage transition falls through into
// the next stage's progress sweep, as consecutive waits do.
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
	case drainExpose:
		if !r.WaitUntil("vanilla-wait", func() bool { return ep.err != nil || ep.exposureSideDone() }) {
			c.ep, c.stage = ep, drainExpose
			return
		}
		if ep.err == nil {
			ep.maybeComplete()
		}
	}
	if err := ep.err; err != nil {
		panic(err)
	}
}

// vanillaFence closes the open fence epoch with the staged blocking
// sequence (all-ready, issue, drain, notify, collect) and opens the next
// round unless AssertNoSucceed.
func (w *Window) vanillaFence(assert FenceAssert) {
	w.rank.ChargeCall()
	if w.curFence != nil {
		ep := w.curFence
		w.curFence = nil
		w.emitEpoch(traceClose, ep)
		w.removeOpenAccess(ep)
		w.vanillaDrain(ep, drainGrants)
		// Barrier semantics: wait for every peer's done packet.
		w.rank.WaitUntil("vanilla-fence-barrier", func() bool {
			return ep.err != nil || ep.exposureSideDone()
		})
		if err := ep.err; err != nil {
			panic(err)
		}
		ep.maybeComplete()
	}
	if assert&AssertNoSucceed == 0 {
		ep := newEpoch(w, EpochFence)
		w.curFence = ep
		w.openAccess = append(w.openAccess, ep)
		w.vanillaActivate(ep)
	}
}

// vanillaLock opens a lazy lock epoch: nothing is sent yet.
func (w *Window) vanillaLock(target int, exclusive bool) {
	if !w.rank.ChargeCall() {
		return
	}
	ep := newEpoch(w, EpochLock)
	ep.shared = !exclusive
	ep.setGroup([]int{target})
	w.emitEpoch(traceOpen, ep)
	w.openAccess = append(w.openAccess, ep)
	w.epochs = append(w.epochs, ep)
}

// vanillaUnlock fulfils the whole lazy lock epoch: request the lock, wait
// for the grant, issue the recorded transfers, drain them, release. Like
// vanillaClose, the repeat of a pending call goes straight back to the drain
// stage it had reached.
func (w *Window) vanillaUnlock(target int) {
	c := &w.eng.call
	ep, stage := c.ep, c.stage
	if ep == nil {
		if !w.rank.ChargeCall() {
			return
		}
		ep, stage = w.findOpenLock(target, EpochLock), drainGrants
		w.emitEpoch(traceClose, ep)
		w.removeOpenAccess(ep)
		w.vanillaLockActivate(ep)
		w.armEpochTimeout(ep)
	}
	c.ep = nil
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

// vanillaLockAll opens a lazy shared lock on every rank.
func (w *Window) vanillaLockAll() {
	if !w.rank.ChargeCall() {
		return
	}
	ep := newEpoch(w, EpochLockAll)
	ep.shared = true
	w.emitEpoch(traceOpen, ep)
	w.openAccess = append(w.openAccess, ep)
	w.epochs = append(w.epochs, ep)
}

// vanillaUnlockAll fulfils the lazy lock-all epoch. Unlike the single-lock
// close, the multi-target epoch is drained incrementally: each target's
// transfers are issued the moment its grant arrives and its unlock is sent
// as soon as they drain, without waiting for the remaining grants. Holding
// every granted lock while blocked on the rest is a hold-and-wait pattern
// that deadlocks against concurrent exclusive locks; real lazy
// implementations acquire and release per target for exactly this reason.
// The repeat of a call pending in the drain finds the closed epoch in the
// call state.
func (w *Window) vanillaUnlockAll() {
	c := &w.eng.call
	ep := c.ep
	if ep == nil {
		if !w.rank.ChargeCall() {
			return
		}
		ep = w.findOpenLock(-1, EpochLockAll)
		w.emitEpoch(traceClose, ep)
		w.removeOpenAccess(ep)
		w.vanillaLockActivate(ep)
		w.armEpochTimeout(ep)
		ep.closedApp = true
	}
	c.ep = nil
	if !w.rank.WaitUntil("vanilla-lockall-drain", func() bool {
		if ep.err != nil {
			return true
		}
		w.eng.issueReady(ep, anyNode)
		ep.postDones()
		ep.maybeComplete()
		return ep.completed
	}) {
		c.ep = ep
		return
	}
	if err := ep.err; err != nil {
		panic(err)
	}
}

// vanillaForceIssue pushes a lazy passive epoch far enough for a blocking
// flush: acquire the lock(s) and issue what is recorded toward target
// (target == -1 means every target).
func (w *Window) vanillaForceIssue(target int) {
	for _, ep := range w.openAccess {
		if ep.kind != EpochLock && ep.kind != EpochLockAll {
			continue
		}
		if target != -1 && !ep.coversTarget(target) {
			continue
		}
		w.vanillaLockActivate(ep)
		epoch := ep
		w.rank.WaitUntil("vanilla-flush-grants", func() bool {
			return epoch.err != nil || epoch.allGranted()
		})
		if epoch.err != nil {
			continue // flushWait's own err check surfaces the abort
		}
		w.eng.issueReady(ep, anyNode)
	}
}
