package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/peertab"
)

// Epoch is the middleware-side epoch object (Section VII-A): created
// inactive when the application opens an epoch, possibly deferred, then
// activated by the progress engine, and finally completed once all its
// origin- or target-side completion conditions hold.
//
// All per-peer state lives in one peertab.Table (peers). Every epoch has
// exactly one peer group — the targets of an access-role epoch, the origins
// of an exposure, both at once for a fence:
//
//   - explicit-group kinds (access, exposure, lock) build the table from the
//     group at open, in group order, and never grow it: the table IS the
//     group, and slot i is the i-th member;
//   - whole-window kinds (fence, lock_all) cover every rank by definition
//     and own a slot only for peers they touched. Activation fills the
//     table (slot i is rank i: one array, no lookup); flush mode's
//     perpetual lock_all epoch is never activated and touches only the
//     peers the rank communicates with, so a 64k-rank flush window stays
//     O(touched).
//
// The epoch owns its slots; nothing outside this package's epoch/ops code
// keeps a *epochPeer, and none survives a Get that adds a slot. It also owns
// its closing request and, for a one-peer table, the table itself. A
// finished epoch goes back to its window's free list (Window.recycle) and
// the next newEpoch reuses it with its tables' capacity, so a steady-state
// epoch is no heap object (DESIGN.md, core).
type Epoch struct {
	win     *Window
	kind    EpochKind
	seq     int64 // program-order index within the window
	spanRef int   // 1 + the index of its trace span (tracing.go); 0 for none

	shared  bool // lock epochs: shared (true) or exclusive (false)
	noCheck bool // MPI_MODE_NOCHECK: skip the lock-acquisition protocol

	// Lifecycle flags (Section VI's "application-level lifetime" vs
	// "internal lifetime").
	activated bool
	closedApp bool // the application issued the closing synchronization
	completed bool // internal lifetime over; successors may activate

	// peers is the slot table, in group order (done packets go out in it).
	peers peertab.Table[epochPeer]

	// Recorded ops, threaded through the ops themselves: recHead/recTail is
	// the program-order log (rmaOp.nextRec; entries issued through their
	// per-target queue stay logged until the next traversal skips them or
	// the epoch completes), and each slot heads its target's queue
	// (rmaOp.nextTgt).
	recHead, recTail *rmaOp
	recLive          int // recorded-but-unissued op count

	// Epoch-wide sums of the per-slot counters.
	pendingAll int // issued-but-incomplete ops
	locPendAll int // issued-but-not-locally-complete ops (signal gating)
	doneCount  int // done/unlock packets posted

	// extents records access ranges when conflict checking is enabled.
	extents []opExtent

	// closeReq completes when the epoch completes (Section VII-C's closing
	// request, which exists only for that). It is the zero value until the
	// application closes the epoch — and for good in vanilla mode, whose
	// closes are blocking — and completing or failing the zero value wakes
	// no rank.
	closeReq mpi.Request

	// err is set when the epoch was aborted instead of completing cleanly
	// (see errors.go); completed is also set so waiters unwind.
	err *RMAError

	// What still reaches the epoch, for Window.recycle: its unretired ops,
	// membership in w.epochs, an armed epochTimedOut, and a closing call or
	// request the application has not finished with. nextFree chains the
	// window's free list.
	ops      int32
	listed   bool
	timed    bool
	held     bool
	nextFree *Epoch
}

// epochPeer is one peer's slot in an epoch: everything the epoch knows about
// that peer, on both sides.
type epochPeer struct {
	pending int32 // issued-but-incomplete ops toward the peer
	locPend int32 // issued-but-not-locally-complete ops (signal gating)

	hasAccess, hasExpose bool  // accessID / exposeID assigned (at activation)
	used                 bool  // the epoch communicated with the peer
	donePosted           bool  // done/unlock packet posted
	accessID             int64 // A_i toward the peer
	exposeID             int64 // e_l toward the peer

	recHead, recTail *rmaOp // recorded ops toward the peer, program order
}

func newEpoch(w *Window, kind EpochKind) *Epoch {
	ep := w.freeEpochs
	if ep == nil {
		ep = new(Epoch)
	} else {
		w.freeEpochs = ep.nextFree
		*ep = Epoch{peers: ep.peers, extents: ep.extents[:0]}
		ep.peers.Reset()
	}
	ep.win, ep.kind, ep.seq = w, kind, w.nextEpochSeq
	w.nextEpochSeq++
	w.eng.ctr[cEpochsOpened]++
	return ep
}

// wholeWindow reports whether the epoch's group is every rank of the window.
func (ep *Epoch) wholeWindow() bool {
	return ep.kind == EpochFence || ep.kind == EpochLockAll
}

// groupSize and peerAt enumerate the epoch's group without materializing it:
// 0..n-1 for whole-window kinds, the slot table otherwise. The slot is nil
// for a peer a whole-window epoch has not touched.
func (ep *Epoch) groupSize() int {
	if ep.wholeWindow() {
		return ep.win.n
	}
	return ep.peers.Len()
}

func (ep *Epoch) peerAt(i int) (int, *epochPeer) {
	if ep.wholeWindow() {
		return i, ep.peers.Find(i)
	}
	return ep.peers.At(i)
}

// inGroup reports whether rank t belongs to the epoch's group.
func (ep *Epoch) inGroup(t int) bool {
	if ep.wholeWindow() {
		return t >= 0 && t < ep.win.n
	}
	return ep.peers.Find(t) != nil
}

// coversTarget reports whether the epoch's access side includes rank t.
func (ep *Epoch) coversTarget(t int) bool {
	return ep.kind.isAccessRole() && ep.inGroup(t)
}

// record appends an op to both the program-order log and its target's queue.
func (ep *Epoch) record(o *rmaOp) {
	s := ep.peers.Get(o.target)
	s.used = true
	if s.recTail == nil {
		s.recHead = o
	} else {
		s.recTail.nextTgt = o
	}
	s.recTail = o
	ep.logRecorded(o)
	ep.recLive++
}

// logRecorded appends o to the program-order log.
func (ep *Epoch) logRecorded(o *rmaOp) {
	o.logged = true
	if ep.recTail == nil {
		ep.recHead = o
	} else {
		ep.recTail.nextRec = o
	}
	ep.recTail = o
}

// drainLog empties the program-order log, unlinking the ops from one another
// and retiring each whose delivery already returned. At completion the log
// holds only ops issued through their target's queue; the rest of them
// retire when their delivery returns. An aborted epoch's ops never retire.
func (ep *Epoch) drainLog() {
	for o := ep.recHead; o != nil; {
		next := o.nextRec
		o.nextRec, o.nextTgt, o.logged = nil, nil, false
		ep.win.retire(o)
		o = next
	}
	ep.recHead, ep.recTail = nil, nil
}

// dropRecorded forgets every recorded op (epoch abort): both intrusive
// queues are emptied and the ops unlinked from one another.
func (ep *Epoch) dropRecorded() {
	ep.drainLog()
	for i := range ep.peers.Len() {
		_, s := ep.peers.At(i)
		s.recHead, s.recTail = nil, nil
	}
	ep.recLive = 0
}

// granted reports whether target t has granted this epoch's access.
func (ep *Epoch) granted(t int) bool {
	if ep.noCheck {
		return ep.activated // MPI_MODE_NOCHECK: asserted by the caller
	}
	s := ep.peers.Find(t)
	if s == nil || !s.hasAccess {
		return false // not activated yet
	}
	return ep.win.peer(t).granted(s.accessID)
}

// allGranted reports whether every target of the group has granted access.
func (ep *Epoch) allGranted() bool {
	for i, n := 0, ep.groupSize(); i < n; i++ {
		if t, _ := ep.peerAt(i); !ep.granted(t) {
			return false
		}
	}
	return true
}

// accessSideDone reports whether all origin-side completion conditions
// hold: activated, application-closed, nothing recorded, nothing in
// flight, and every used target's done/unlock packet posted.
func (ep *Epoch) accessSideDone() bool {
	if !ep.kind.isAccessRole() {
		return true
	}
	if !ep.activated || !ep.closedApp || ep.recLive > 0 {
		return false
	}
	// Under signal-transport local-completion gating the origin side is
	// done at wire completion (MPI_WIN_COMPLETE requires only local
	// completion); the default plane waits for remote completion, whose
	// ack doubles as the implicit done-ordering proof.
	if ep.win.sigLocalGate() {
		if ep.locPendAll > 0 {
			return false
		}
	} else if ep.pendingAll > 0 {
		return false
	}
	return ep.doneCount == ep.doneTargetCount()
}

// doneTargetCount is the number of peers that must receive a done/unlock
// packet when this epoch closes. GATS and fence epochs notify the whole group
// (their exposure side blocks on it); lock epochs notify (unlock) only their
// target; lock_all unlocks every peer it locked (all of them).
func (ep *Epoch) doneTargetCount() int {
	if !ep.kind.isAccessRole() {
		return 0
	}
	return ep.groupSize()
}

// postDones posts every done/unlock packet whose conditions hold.
func (ep *Epoch) postDones() {
	for i, n := 0, ep.doneTargetCount(); i < n; i++ {
		t, _ := ep.peerAt(i)
		ep.maybePostDone(t)
	}
}

// exposureSideDone reports whether all target-side completion conditions
// hold: application-closed (Wait/IWait called — for fence, the closing
// fence call) and a done packet received from every origin in the group.
func (ep *Epoch) exposureSideDone() bool {
	if !ep.kind.isExposureRole() {
		return true
	}
	return ep.activated && ep.closedApp && ep.donesArrived()
}

// donesArrived reports whether every origin of the group has sent the done
// packet matching this epoch's exposure toward it.
func (ep *Epoch) donesArrived() bool {
	for i, n := 0, ep.groupSize(); i < n; i++ {
		o, s := ep.peerAt(i)
		if s == nil || !s.hasExpose || !ep.win.peer(o).exposureComplete(s.exposeID) {
			return false
		}
	}
	return true
}

// maybeComplete checks all completion conditions and, when they hold,
// completes the epoch: the program-order log is drained, the closing request
// fires, and the window is marked for an activation scan so successors can
// proceed. Safe to call from both NIC and engine context.
func (ep *Epoch) maybeComplete() {
	if ep.completed {
		return
	}
	if !ep.accessSideDone() || !ep.exposureSideDone() {
		return
	}
	ep.completed = true
	ep.win.eng.ctr[cEpochsCompleted]++
	ep.traceEnd()
	ep.drainLog()
	ep.closeReq.Complete()
	ep.win.dirty = true
	ep.win.rank.Wake.Fire()
}

// handOutClose readies the closing request a close hands the application;
// the epoch stays off the free list until Wait hands the request back.
func (ep *Epoch) handOutClose() {
	ep.closeReq.Init(ep.win.rank, releaseClose, ep)
	ep.held = true
}

// String implements fmt.Stringer for diagnostics.
func (ep *Epoch) String() string {
	return fmt.Sprintf("epoch{win=%d rank=%d kind=%s seq=%d act=%t closed=%t done=%t}",
		ep.win.id, ep.win.rank.ID, ep.kind, ep.seq, ep.activated, ep.closedApp, ep.completed)
}
