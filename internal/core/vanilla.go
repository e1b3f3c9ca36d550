package core

import "repro/internal/sim"

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

// vanillaStart opens a GATS access epoch; ids are assigned immediately but
// transfers stay recorded until Complete.
func (w *Window) vanillaStart(group []int) {
	w.rank.ChargeCall()
	w.vanillaStartNC(group)
}

// vanillaStartNC is vanillaStart after its ChargeCall (task API).
func (w *Window) vanillaStartNC(group []int) {
	ep := newEpoch(w, EpochAccess)
	ep.setGroup(group)
	w.openAccess = append(w.openAccess, ep)
	w.vanillaActivate(ep)
}

// vanillaComplete is the MVAPICH-style closing synchronization: wait for
// every target's post, then issue everything, wait for the data, notify.
func (w *Window) vanillaComplete() {
	w.rank.ChargeCall()
	w.vanillaRun(w.vanillaCompleteBegin())
}

// Vanilla drain stages (VanillaDrain.stage).
const (
	drainGrants = iota // waiting for every target's grant
	drainData          // transfers issued; waiting for remote completion
	drainExpose        // exposure side: waiting for every origin's done
)

// VanillaDrain is the blocking tail of a vanilla-mode closing
// synchronization, reified so task-mode ranks can resume it across Steps.
// Each stage is one waitUntil of the original sequence; Step advances
// through as many stages as current progress allows and arms the rank's
// Wake signal when it must wait, exactly like one unrolled waitUntil
// iteration per stage (mpi.Rank.TaskAwait).
type VanillaDrain struct {
	w     *Window
	ep    *Epoch
	stage int
}

// vanillaCompleteBegin is vanillaComplete up to its first wait: the open
// GATS access epoch is closed at the application level and handed to the
// drain.
func (w *Window) vanillaCompleteBegin() *VanillaDrain {
	ep := w.findOpenGATSAccess()
	w.emitEpoch(traceClose, ep)
	w.removeOpenAccess(ep)
	w.armEpochTimeout(ep)
	return &VanillaDrain{w: w, ep: ep, stage: drainGrants}
}

// vanillaWaitBegin is vanillaWaitEpoch up to its wait.
func (w *Window) vanillaWaitBegin() *VanillaDrain {
	ep := w.takeOldestExposure()
	w.emitEpoch(traceClose, ep)
	ep.closedApp = true
	w.armEpochTimeout(ep)
	return &VanillaDrain{w: w, ep: ep, stage: drainExpose}
}

// Step advances the drain and reports completion. While false, the calling
// proc has been armed on (or, for goroutine procs, woken through) the
// rank's Wake signal. The scheduling sequence is identical to the blocking
// form: each TaskAwait is one Progress-sweep-then-test, and a stage
// transition falls through into the next stage's sweep just as consecutive
// waitUntil calls do.
func (d *VanillaDrain) Step(p *sim.Proc) bool {
	w, ep, r := d.w, d.ep, d.w.rank
	// Every stage's predicate admits ep.err: an abort (epoch timeout or
	// dead-peer declaration) completes the epoch without ever satisfying the
	// healthy-path condition — grants from a dead lock agent never arrive —
	// so an abort-blind drain would park its proc forever. The blocking
	// driver (vanillaRun) surfaces the error as a panic after the unwind.
	if d.stage == drainGrants {
		ok := r.TaskAwait(p, "vanilla-grants", func() bool {
			return ep.err != nil || ep.allGranted()
		})
		if !ok {
			return false
		}
		if ep.err != nil {
			return true
		}
		w.eng.issueReady(ep, anyNode)
		d.stage = drainData
	}
	if d.stage == drainData {
		ok := r.TaskAwait(p, "vanilla-data", func() bool {
			return ep.err != nil || (ep.pendingAll == 0 && ep.recLive == 0)
		})
		if !ok {
			return false
		}
		if ep.err != nil {
			return true
		}
		ep.closedApp = true
		ep.postDones()
		ep.maybeComplete()
		return true
	}
	ok := r.TaskAwait(p, "vanilla-wait", func() bool {
		return ep.err != nil || ep.exposureSideDone()
	})
	if !ok {
		return false
	}
	if ep.err == nil {
		ep.maybeComplete()
	}
	return true
}

// vanillaRun drives a drain to completion on the blocking (goroutine) path.
// TaskAwait's Wake.Wait parks the goroutine inline, so the loop is the
// original waitUntil sequence; the single TimeInMPI span equals the sum of
// the original per-wait spans because the work between stages advances no
// virtual time.
func (w *Window) vanillaRun(d *VanillaDrain) {
	r := w.rank
	start := r.Now()
	for !d.Step(r.Proc) {
	}
	r.TimeInMPI += r.Now() - start
	if err := d.ep.err; err != nil {
		panic(err) // errors-are-fatal analog, same as waitSync
	}
}

// vanillaDrain runs the blocking access-side close sequence of ep.
func (w *Window) vanillaDrain(ep *Epoch) {
	w.vanillaRun(&VanillaDrain{w: w, ep: ep, stage: drainGrants})
}

// vanillaPost opens an exposure epoch (post notifications go out at once,
// as in every modern MPI library).
func (w *Window) vanillaPost(group []int) {
	w.rank.ChargeCall()
	w.vanillaPostNC(group)
}

// vanillaPostNC is vanillaPost after its ChargeCall (task API).
func (w *Window) vanillaPostNC(group []int) {
	ep := newEpoch(w, EpochExposure)
	ep.setGroup(group)
	w.openExposure = append(w.openExposure, ep)
	w.vanillaActivate(ep)
}

// vanillaWaitEpoch blocks until every origin's done packet has arrived.
func (w *Window) vanillaWaitEpoch() {
	w.rank.ChargeCall()
	w.vanillaRun(w.vanillaWaitBegin())
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
		w.vanillaDrain(ep)
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
	w.rank.ChargeCall()
	ep := newEpoch(w, EpochLock)
	ep.shared = !exclusive
	ep.setGroup([]int{target})
	w.emitEpoch(traceOpen, ep)
	w.openAccess = append(w.openAccess, ep)
	w.epochs = append(w.epochs, ep)
}

// vanillaUnlock fulfils the whole lazy lock epoch: request the lock, wait
// for the grant, issue the recorded transfers, drain them, release.
func (w *Window) vanillaUnlock(target int) {
	w.rank.ChargeCall()
	ep := w.findOpenLock(target, EpochLock)
	w.emitEpoch(traceClose, ep)
	w.removeOpenAccess(ep)
	w.vanillaLockActivate(ep)
	w.armEpochTimeout(ep)
	w.vanillaDrain(ep)
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
	w.rank.ChargeCall()
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
func (w *Window) vanillaUnlockAll() {
	w.rank.ChargeCall()
	ep := w.findOpenLock(-1, EpochLockAll)
	w.emitEpoch(traceClose, ep)
	w.removeOpenAccess(ep)
	w.vanillaLockActivate(ep)
	w.armEpochTimeout(ep)
	ep.closedApp = true
	w.rank.WaitUntil("vanilla-lockall-drain", func() bool {
		if ep.err != nil {
			return true
		}
		w.eng.issueReady(ep, anyNode)
		ep.postDones()
		ep.maybeComplete()
		return ep.completed
	})
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
