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
	return w.openEpoch(func() *Epoch {
		if len(group) == 0 {
			w.raisef("Start with an empty target group")
		}
		return w.newGATSEpoch(EpochAccess, group)
	})
}

// Start opens an access epoch toward the given target group. Like all
// modern MPI libraries (and both of the paper's designs) it does not block
// waiting for the matching posts.
func (w *Window) Start(group []int) {
	if w.mode == ModeVanilla {
		w.vanillaOpen(EpochAccess, group)
		return
	}
	w.waitSync(func() *mpi.Request { return w.IStart(group) })
}

// newGATSEpoch creates a GATS epoch of the given role (EpochAccess or
// EpochExposure) toward group and registers it as application-open.
func (w *Window) newGATSEpoch(kind EpochKind, group []int) *Epoch {
	ep := newEpoch(w, kind)
	ep.setGroup(group)
	if kind == EpochAccess {
		w.openAccess = append(w.openAccess, ep)
	} else {
		w.openExposure = append(w.openExposure, ep)
	}
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
		w.vanillaClose(EpochAccess)
		return
	}
	w.waitSync(w.IComplete)
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
	return w.openEpoch(func() *Epoch {
		if len(group) == 0 {
			w.raisef("Post with an empty origin group")
		}
		return w.newGATSEpoch(EpochExposure, group)
	})
}

// Post opens an exposure epoch toward the given origin group.
func (w *Window) Post(group []int) {
	if w.mode == ModeVanilla {
		w.vanillaOpen(EpochExposure, group)
		return
	}
	w.waitSync(func() *mpi.Request { return w.IPost(group) })
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
	if !w.rank.ChargeCall() {
		return nil
	}
	ep := w.takeOldestExposure()
	ep.closedApp = true
	w.emitEpoch(traceClose, ep)
	ep.closeReq.Init(w.rank)
	if ep.err != nil {
		ep.closeReq.Fail(ep.err)
		return &ep.closeReq
	}
	if ep.activated {
		ep.maybeComplete()
	}
	w.armEpochTimeout(ep)
	return &ep.closeReq
}

// WaitEpoch is the blocking MPI_WIN_WAIT: it closes the oldest open
// exposure epoch and blocks until every origin in its group has sent its
// done packet.
func (w *Window) WaitEpoch() {
	if w.mode == ModeVanilla {
		w.vanillaClose(EpochExposure)
		return
	}
	w.waitSync(w.IWait)
}

// TestEpoch is MPI_WIN_TEST: it drives progress once and reports whether
// the oldest open exposure epoch has completed; when it has, the epoch is
// closed exactly as WaitEpoch would. One call, one call overhead.
func (w *Window) TestEpoch() bool {
	if !w.rank.ChargeCall() {
		return false
	}
	if len(w.openExposure) == 0 {
		w.raisef("no open exposure epoch to test")
	}
	ep := w.openExposure[0]
	w.rank.Progress()
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
	ep.closeReq.Init(w.rank)
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
