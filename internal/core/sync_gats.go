package core

import (
	"repro/internal/mpi"
)

// General active target synchronization (GATS): Start/Complete on the
// origin side, Post/Wait on the target side, plus the paper's nonblocking
// IStart/IComplete/IPost/IWait. Access and exposure epochs match FIFO
// through the ω counters; a target that grants an origin "several epochs
// late" persists the grant in the origin's g counter (Section VII-B).

// IStart opens an access epoch toward the given target group,
// nonblockingly; the returned request is pre-completed.
func (w *Window) IStart(group []int) *mpi.Request {
	if w.mode == ModeVanilla {
		w.raisef("nonblocking synchronizations are unavailable in vanilla mode")
	}
	ep := w.startEpoch(group)
	return ep.openReq
}

// Start opens an access epoch toward the given target group. Like all
// modern MPI libraries (and both of the paper's designs) it does not block
// waiting for the matching posts.
func (w *Window) Start(group []int) {
	if w.mode == ModeVanilla {
		w.vanillaStart(group)
		return
	}
	w.rank.Wait(w.IStart(group))
}

// startEpoch creates and enqueues a GATS access epoch.
func (w *Window) startEpoch(group []int) *Epoch {
	ep := w.buildStartEpoch(group)
	w.pushEpoch(ep)
	return ep
}

// buildStartEpoch is the pre-charge half of startEpoch: the epoch exists
// and is registered as application-open, but has not entered the epoch
// pipeline yet. Shared with the no-charge task API (task_api.go).
func (w *Window) buildStartEpoch(group []int) *Epoch {
	if len(group) == 0 {
		w.raisef("Start with an empty target group")
	}
	ep := newEpoch(w, EpochAccess)
	ep.setGroup(group)
	ep.openReq = mpi.NewCompletedRequest(w.rank)
	w.openAccess = append(w.openAccess, ep)
	return ep
}

// IComplete closes the current GATS access epoch nonblockingly: it returns
// immediately and the epoch's transfers, done packets and completion all
// proceed inside the progress engine. Buffers touched by the epoch remain
// unsafe until the returned request completes.
func (w *Window) IComplete() *mpi.Request {
	if w.mode == ModeVanilla {
		w.raisef("nonblocking synchronizations are unavailable in vanilla mode")
	}
	ep := w.findOpenGATSAccess()
	return w.closeAccessEpoch(ep)
}

// Complete is the blocking form of IComplete.
func (w *Window) Complete() {
	if w.mode == ModeVanilla {
		w.vanillaComplete()
		return
	}
	w.waitSync(w.IComplete())
}

// findOpenGATSAccess locates the application-open GATS access epoch.
func (w *Window) findOpenGATSAccess() *Epoch {
	for i := len(w.openAccess) - 1; i >= 0; i-- {
		if w.openAccess[i].kind == EpochAccess {
			return w.openAccess[i]
		}
	}
	w.raisef("no open GATS access epoch")
	return nil
}

// IPost opens an exposure epoch toward the given origin group,
// nonblockingly. MPI_WIN_POST was already nonblocking in MPI-3.0; IPost is
// "provided solely for uniformity and completeness" (Section V).
func (w *Window) IPost(group []int) *mpi.Request {
	if w.mode == ModeVanilla {
		w.raisef("nonblocking synchronizations are unavailable in vanilla mode")
	}
	ep := w.postEpoch(group)
	return ep.openReq
}

// Post opens an exposure epoch toward the given origin group.
func (w *Window) Post(group []int) {
	if w.mode == ModeVanilla {
		w.vanillaPost(group)
		return
	}
	w.rank.Wait(w.IPost(group))
}

// postEpoch creates and enqueues a GATS exposure epoch.
func (w *Window) postEpoch(group []int) *Epoch {
	ep := w.buildPostEpoch(group)
	w.pushEpoch(ep)
	return ep
}

// buildPostEpoch is the pre-charge half of postEpoch (see buildStartEpoch).
func (w *Window) buildPostEpoch(group []int) *Epoch {
	if len(group) == 0 {
		w.raisef("Post with an empty origin group")
	}
	ep := newEpoch(w, EpochExposure)
	ep.setGroup(group)
	ep.openReq = mpi.NewCompletedRequest(w.rank)
	w.openExposure = append(w.openExposure, ep)
	return ep
}

// IWait closes the oldest application-open exposure epoch nonblockingly.
// Unlike MPI_WIN_TEST — which only avoids idling while the current
// exposure completes — IWait lets the application immediately open
// subsequent epochs, eliminating application-level epoch serialization
// (Section V).
func (w *Window) IWait() *mpi.Request {
	if w.mode == ModeVanilla {
		w.raisef("nonblocking synchronizations are unavailable in vanilla mode")
	}
	w.rank.ChargeCall()
	return w.iWaitNC()
}

// iWaitNC is IWait after its ChargeCall (shared with the task API).
func (w *Window) iWaitNC() *mpi.Request {
	ep := w.takeOldestExposure()
	ep.closedApp = true
	w.emitEpoch(traceClose, ep)
	ep.closeReq = mpi.NewRequest(w.rank)
	if ep.err != nil {
		ep.closeReq.Fail(ep.err)
		return ep.closeReq
	}
	if ep.activated {
		ep.maybeComplete()
	}
	w.armEpochTimeout(ep)
	return ep.closeReq
}

// WaitEpoch is the blocking MPI_WIN_WAIT: it closes the oldest open
// exposure epoch and blocks until every origin in its group has sent its
// done packet.
func (w *Window) WaitEpoch() {
	if w.mode == ModeVanilla {
		w.vanillaWaitEpoch()
		return
	}
	w.waitSync(w.IWait())
}

// TestEpoch is MPI_WIN_TEST: it drives progress once and reports whether
// the oldest open exposure epoch has completed; when it has, the epoch is
// closed exactly as WaitEpoch would.
func (w *Window) TestEpoch() bool {
	w.rank.ChargeCall()
	if len(w.openExposure) == 0 {
		w.raisef("no open exposure epoch to test")
	}
	ep := w.openExposure[0]
	w.rank.Test(nil) // one progress sweep
	if ep.err != nil {
		w.openExposure = removeOpen(w.openExposure, 0)
		panic(ep.err)
	}
	// Probe completion without closing: all origins must have sent dones.
	if !ep.activated || !ep.donesArrived() {
		return false
	}
	w.openExposure = removeOpen(w.openExposure, 0)
	ep.closedApp = true
	w.emitEpoch(traceClose, ep)
	ep.closeReq = mpi.NewRequest(w.rank)
	ep.maybeComplete()
	return true
}

// takeOldestExposure pops the oldest application-open exposure epoch.
func (w *Window) takeOldestExposure() *Epoch {
	if len(w.openExposure) == 0 {
		w.raisef("no open exposure epoch")
	}
	ep := w.openExposure[0]
	w.openExposure = removeOpen(w.openExposure, 0)
	return ep
}
