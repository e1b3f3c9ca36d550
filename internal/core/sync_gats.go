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
	w.allow(EpochAccess, true, false)
	w.checkPeers(EpochAccess, group...)
	return w.iopenGATS(EpochAccess, group)
}

// Start opens an access epoch toward the given target group. Like all
// modern MPI libraries (and both of the paper's designs) it does not block
// waiting for the matching posts.
func (w *Window) Start(group []int) {
	w.allow(EpochAccess, false, false)
	w.checkPeers(EpochAccess, group...)
	w.impl.openGATS(w, EpochAccess, group)
}

// iopenGATS is IStart (EpochAccess) and IPost (EpochExposure).
func (w *Window) iopenGATS(kind EpochKind, group []int) *mpi.Request {
	return w.openEpoch(func() *Epoch { return w.newGATSEpoch(kind, group) })
}

// openGATS is the blocking Start and Post.
func (newMode) openGATS(w *Window, kind EpochKind, group []int) {
	w.waitSync(func() *mpi.Request { return w.iopenGATS(kind, group) })
}

// closeGATS is the blocking Complete and WaitEpoch.
func (newMode) closeGATS(w *Window, kind EpochKind) {
	if kind == EpochAccess {
		w.waitSync(w.IComplete)
	} else {
		w.waitSync(w.IWait)
	}
}

// newGATSEpoch creates a GATS epoch of the given role (EpochAccess or
// EpochExposure) toward group and registers it as application-open.
func (w *Window) newGATSEpoch(kind EpochKind, group []int) *Epoch {
	ep := newEpoch(w, kind)
	ep.peers.Add(group...)
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
	w.allow(EpochAccess, true, false)
	return w.closeAccessEpoch(w.findOpen(EpochAccess, -1))
}

// Complete is the blocking form of IComplete.
func (w *Window) Complete() {
	w.allow(EpochAccess, false, false)
	w.impl.closeGATS(w, EpochAccess)
}

// IPost opens an exposure epoch toward the given origin group,
// nonblockingly. MPI_WIN_POST was already nonblocking in MPI-3.0; IPost is
// "provided solely for uniformity and completeness" (Section V).
func (w *Window) IPost(group []int) *mpi.Request {
	w.allow(EpochExposure, true, false)
	w.checkPeers(EpochExposure, group...)
	return w.iopenGATS(EpochExposure, group)
}

// Post opens an exposure epoch toward the given origin group.
func (w *Window) Post(group []int) {
	w.allow(EpochExposure, false, false)
	w.checkPeers(EpochExposure, group...)
	w.impl.openGATS(w, EpochExposure, group)
}

// IWait closes the oldest application-open exposure epoch nonblockingly.
// Unlike MPI_WIN_TEST — which only avoids idling while the current
// exposure completes — IWait lets the application immediately open
// subsequent epochs, eliminating application-level epoch serialization
// (Section V).
func (w *Window) IWait() *mpi.Request {
	w.allow(EpochExposure, true, false)
	if !w.rank.ChargeCall() {
		return nil
	}
	ep := w.takeOldestExposure()
	ep.closedApp = true
	ep.traceClose()
	ep.handOutClose()
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
	w.allow(EpochExposure, false, false)
	w.impl.closeGATS(w, EpochExposure)
}

// TestEpoch is MPI_WIN_TEST: it drives progress once and reports whether
// the oldest open exposure epoch has completed; when it has, the epoch is
// closed exactly as WaitEpoch would. One call, one call overhead.
func (w *Window) TestEpoch() bool {
	w.allow(EpochExposure, false, false)
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
		w.fail(ep.err)
		return false
	}
	// Probe completion without closing: all origins must have sent dones.
	if !ep.activated || !ep.donesArrived() {
		return false
	}
	w.openExposure = removeOpen(w.openExposure, 0)
	ep.closedApp = true
	ep.traceClose()
	ep.closeReq.Init(w.rank, nil, nil) // wakes the rank; never handed out
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
