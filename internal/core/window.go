package core

import (
	"slices"

	"repro/internal/mpi"
	"repro/internal/peertab"
	"repro/internal/sim"
)

// Window is one rank's view of a collectively created RMA window: the
// exposed local memory region plus all epoch-matching and epoch-queue state.
type Window struct {
	rank  *mpi.Rank
	eng   *Engine
	id    int64
	impl  modeImpl   // the mode's implementation (mode.go)
	rules *modeRules // and its row of the seam's table
	info  Info
	n     int
	size  int64
	buf   []byte // nil for shape-only windows

	// ω-triples + done counters per peer (O(1) matching state): dense
	// values for small worlds, sparse entries at scale so a 64k-rank world
	// is not 64k² counter slots. Always via w.peer(i).
	peers peertab.WorldTable[peerCounters]

	// Control plane (control.go): the wire format, the base the signal
	// format offsets its counters by, and the per-peer user-signal counters
	// — nil until the window first sends or receives one (signal.go).
	transport Transport
	sigBase   uint64
	user      *peertab.Table[userCounters]

	// Epoch bookkeeping.
	nextEpochSeq int64
	traceOrd     int64    // numbers traced activations and completions (tracing.go)
	epochs       []*Epoch // not-yet-completed epochs, program order
	openAccess   []*Epoch // application-open access-role epochs (oldest first)
	openExposure []*Epoch // application-open exposure epochs (oldest first)
	curFence     *Epoch   // application-open fence epoch, if any

	// Passive-target lock agent (target side; runs in NIC context for
	// internode requesters, engine context for intranode ones).
	agent lockAgent

	// Flush support: monotonic op ages, the not-yet-remotely-complete ops
	// as an intrusive list in age order (rmaOp.prevLive/nextLive), and
	// outstanding flush requests.
	opAge              int64
	liveHead, liveTail *rmaOp
	flushes            []flushReq

	// freeEpochs chains finished epochs for newEpoch (recycle); retired
	// ops go back to the engine's pool (Engine.pl).
	freeEpochs *Epoch

	// dirty asks the engine for an activation/completion scan.
	dirty bool

	// noTrig disables grant-triggered NIC-context issuing (ablation).
	noTrig bool

	// errorsReturn: a failed call records its error (WinOptions.ErrorsReturn).
	errorsReturn bool

	// timeout is the per-epoch operation timeout (WinOptions.EpochTimeout);
	// 0 disables it. err records the first abort (see errors.go).
	timeout sim.Time
	err     *RMAError

	freed bool
}

// Rank returns the owning rank.
func (w *Window) Rank() *mpi.Rank { return w.rank }

// Size returns the exposed region size in bytes.
func (w *Window) Size() int64 { return w.size }

// Bytes returns the local exposed memory. It is nil for shape-only windows.
func (w *Window) Bytes() []byte { return w.buf }

// checkTarget raises unless t is a rank of the window's world, naming the
// argument what, and returns t. It, checkPeers and checkOp are the argument
// seam: an exported call checks its arguments at the call, on the calling
// rank, before an epoch, a peer table or a kernel event sees them (DESIGN §7).
func (w *Window) checkTarget(t int, what string) int {
	if t < 0 || t >= w.n {
		w.raisef("%s %d out of range (n=%d)", what, t, w.n)
	}
	return t
}

// towardRank names a group member in checkPeers's raise.
var towardRank = [...]string{EpochAccess: "access epoch toward rank",
	EpochExposure: "exposure epoch toward rank", EpochLock: "lock epoch toward rank"}

// checkPeers raises unless peers names one or more distinct ranks of the
// window's world: a lock target or a GATS group, checked before the mode
// dispatch, since a peer table gives any rank it is handed a slot. An
// ascending group, the common case, takes one pass; others are checked
// pairwise.
func (w *Window) checkPeers(kind EpochKind, peers ...int) {
	if len(peers) == 0 {
		w.raisef("%s epoch with an empty group", kind)
	}
	ascending := true
	for i, p := range peers {
		w.checkTarget(p, towardRank[kind])
		ascending = ascending && (i == 0 || p > peers[i-1])
	}
	for i := 1; i < len(peers) && !ascending; i++ {
		if slices.Contains(peers[:i], peers[i]) {
			w.raisef("%s epoch group names rank %d twice", kind, peers[i])
		}
	}
}

// checkOp raises unless op is a well-formed RMA call — a target rank, a range
// (a vector's strided extent) inside the window, a defined datatype, operator
// and pair (no-op only where something is fetched), whole elements, and
// buffers of at least size bytes, which it trims to size. A nil buffer is
// traffic only; a shape-only window takes none.
func (w *Window) checkOp(op *rmaOp) {
	w.checkTarget(op.target, "RMA target")
	ext := op.size
	if v := op.vec; v != (vecShape{}) {
		if v.count < 0 || v.blockLen < 0 || v.stride < v.blockLen {
			w.raisef("bad vector shape count=%d blockLen=%d stride=%d", v.count, v.blockLen, v.stride)
		}
		// A huge count or stride would wrap the extent back into range.
		if v.count > 0 && v.stride > 0 && v.count-1 > (1<<62)/v.stride {
			w.raisef("vector extent overflows: count=%d stride=%d", v.count, v.stride)
		}
		ext = v.span()
	}
	// Not off+ext > w.size: a huge off or size would wrap int64 past it.
	if op.off < 0 || ext < 0 || op.off > w.size || ext > w.size-op.off {
		w.raisef("RMA range off=%d size=%d exceeds window size %d", op.off, ext, w.size)
	}
	switch es := int64(op.dtype.Size()); {
	case es == 0:
		w.raisef("unknown datatype %d", op.dtype)
	case op.op < OpSum || op.op > OpNoOp:
		w.raisef("unknown operator %d", op.op)
	case op.dtype == TFloat64 && op.op >= OpBand && op.op <= OpBxor:
		w.raisef("operator %d not defined for float64", op.op)
	case op.class == opAcc && op.op == OpNoOp:
		w.raisef("operator OpNoOp is defined only for get-accumulate and fetch-and-op")
	case op.size%es != 0:
		w.raisef("operand size %d not a multiple of element size %d", op.size, es)
	case w.buf == nil && (op.data != nil || op.buf != nil || op.cmp != nil):
		w.raisef("data-carrying RMA operation on a shape-only window")
	}
	op.data = w.operand(op.data, "origin", op.size)
	op.buf = w.operand(op.buf, "result", op.size)
	op.cmp = w.operand(op.cmp, "compare", op.size)
}

// operand raises unless buffer b is nil or holds size bytes, and returns it
// trimmed to them.
func (w *Window) operand(b []byte, what string, size int64) []byte {
	if b == nil {
		return nil
	}
	if int64(len(b)) < size {
		w.raisef("%s buffer of %d bytes is shorter than the %d-byte operation", what, len(b), size)
	}
	return b[:size]
}

// accessEpoch is the newest application-open access epoch covering target
// t; RMA communication calls must happen inside one.
func (newMode) accessEpoch(w *Window, t int) *Epoch {
	for i := len(w.openAccess) - 1; i >= 0; i-- {
		if w.openAccess[i].coversTarget(t) {
			return w.openAccess[i]
		}
	}
	w.raisef("RMA operation to %d issued outside any access epoch", t)
	return nil
}

// removeOpenAccess unlinks an application-closed access epoch.
func (w *Window) removeOpenAccess(ep *Epoch) {
	for i, e := range w.openAccess {
		if e == ep {
			w.openAccess = removeOpen(w.openAccess, i)
			return
		}
	}
	w.raisef("closing %s access epoch seq %d that is not open", ep.kind, ep.seq)
}

// removeOpen unlinks q[i] from an open-epoch queue by copy-down, so the
// queue keeps its backing array (reslicing from the front would shed
// capacity on every pop and reallocate on every open), and clears the
// vacated tail, so a closed epoch — and through it its ops and their
// buffers — is not kept reachable by the queue.
func removeOpen(q []*Epoch, i int) []*Epoch {
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

// openEpoch is the nonblocking form of every epoch-opening call: build the
// epoch and register it as application-open, charge the call, enter the
// epoch into the deferred-epoch queue and trigger an activation scan (the
// epoch may activate immediately). The returned request is pre-completed
// (epoch-opening routines always exit immediately, Section VII-C); nil means
// the call is pending or failed. The epoch exists before the charge, so the
// repeat of a pending call takes it from the call state instead of building
// another.
func (w *Window) openEpoch(build func() *Epoch) *mpi.Request {
	c := &w.eng.call
	ep := c.ep
	c.ep = nil
	w.checkLive()
	if w.err != nil {
		// Once an epoch aborted, the serial pipeline is poisoned and new
		// epochs would hang behind it.
		w.fail(w.err)
		return nil
	}
	if ep == nil {
		ep = build()
	}
	if !w.rank.ChargeCall() {
		c.ep = ep
		return nil
	}
	if w.dirty = true; w.enter(ep) {
		w.scanActivate()
	}
	return mpi.NewCompletedRequest(w.rank)
}

// enter queues a just-opened epoch and reports whether it stands: one that
// depends on a peer known dead aborts at the door (its closer sees the error).
func (w *Window) enter(ep *Epoch) bool {
	w.list(ep)
	if p := w.deadDependency(ep); p >= 0 {
		w.abortOpenedDead(ep, p)
		return false
	}
	return true
}

// peer returns the counter triple toward rank i, materializing it on first
// touch in sparse (large-world) tables.
func (w *Window) peer(i int) *peerCounters { return w.peers.Get(i) }

// linkLive appends o to the live list: ages increase along it.
func (w *Window) linkLive(o *rmaOp) {
	o.live, o.prevLive = true, w.liveTail
	if w.liveTail == nil {
		w.liveHead = o
	} else {
		w.liveTail.nextLive = o
	}
	w.liveTail = o
}

// unlinkLive removes o from the live list; a no-op once it is off.
func (w *Window) unlinkLive(o *rmaOp) {
	if !o.live {
		return
	}
	if o.prevLive == nil {
		w.liveHead = o.nextLive
	} else {
		o.prevLive.nextLive = o.nextLive
	}
	if o.nextLive == nil {
		w.liveTail = o.prevLive
	} else {
		o.nextLive.prevLive = o.prevLive
	}
	o.prevLive, o.nextLive, o.live = nil, nil, false
}

// detachLive unlinks every live op of epoch ep and returns them oldest
// first, chained through nextLive. Aborts fail the ops' requests from this
// private chain, so a completion hook that re-enters the window cannot
// disturb the walk.
func (w *Window) detachLive(ep *Epoch) *rmaOp {
	var head, tail *rmaOp
	for o := w.liveHead; o != nil; {
		next := o.nextLive
		if o.ep == ep {
			w.unlinkLive(o)
			if tail == nil {
				head = o
			} else {
				tail.nextLive = o
			}
			tail = o
		}
		o = next
	}
	return head
}

// onGrant reacts to a grant (exposure/lock) notification from peer src.
// Recorded transfers of already-activated epochs are issued right here, in
// NIC context: the origin posted their descriptors while it had the CPU
// (the RMA call itself), and the NIC fires them when the grant lands —
// triggered-operation semantics, which is what gives the paper's design
// full communication/computation overlapping inside lock and GATS epochs
// even while the application computes. Deferred (not yet activated) epochs
// still wait for the CPU-side engine scan.
func (w *Window) onGrant(src int) {
	if w.rules.engineDriven && !w.noTrig {
		for _, ep := range w.epochs {
			if !ep.activated || !ep.coversTarget(src) {
				continue
			}
			w.eng.issueBucket(ep, src)
			if ep.closedApp {
				ep.maybePostDone(src)
				ep.maybeComplete()
			}
		}
	}
	w.dirty = true
	w.rank.Wake.Fire()
}

// onDoneRecv reacts to a done packet from origin src: exposure-role epochs
// may now satisfy their completion conditions.
func (w *Window) onDoneRecv(src int) {
	for _, ep := range w.epochs {
		if ep.kind.isExposureRole() {
			ep.maybeComplete()
		}
	}
	w.dirty = true
	w.rank.Wake.Fire()
}

// list appends an opened epoch to the pending queue and opens its span.
func (w *Window) list(ep *Epoch) {
	ep.listed = true
	w.traceOpen(ep)
	w.epochs = append(w.epochs, ep)
}

// pruneCompleted drops completed epochs from the pending queue and offers
// each to the free list. The leading run of live epochs stays where it is,
// so a queue with nothing completed is not written at all (every slot store
// is a pointer store, which takes a write barrier while the GC marks).
func (w *Window) pruneCompleted() {
	i := 0
	for i < len(w.epochs) && !w.epochs[i].completed {
		i++
	}
	if i == len(w.epochs) {
		return
	}
	out := w.epochs[:i]
	for _, ep := range w.epochs[i:] {
		if !ep.completed {
			out = append(out, ep)
			continue
		}
		ep.listed = false
		w.recycle(ep)
	}
	clear(w.epochs[len(out):]) // completed epochs must not stay reachable
	w.epochs = out
}

// recycle returns epoch ep to its window's free list once nothing can reach
// it any more, which takes all of:
//
//  1. it completed and did not abort (an aborted epoch's ops may still be
//     delivered, so it is left to the GC, as they are);
//  2. no unretired op points at it (ops; retire runs after completion when
//     a delivery returns late);
//  3. it is off the pending queue (listed);
//  4. no armed epochTimedOut can still fire for it (timed);
//  5. the application is done with its close (held): a blocking close has
//     returned, and a closing request that reached the application was
//     handed back done by mpi.Rank.Wait (releaseClose), MPI's
//     MPI_REQUEST_NULL point. A request never waited keeps its epoch off
//     the free list for good.
//
// The other places that keep an epoch need no test of their own: a close
// unlinks its epoch from openAccess, openExposure and curFence before the
// epoch can complete, and the call state holds only an epoch not yet
// complete or one whose close is still in progress (held).
//
// Every place that can make the last of these true calls recycle, so it
// frees an epoch once. Like retire, it needs no lock on a sharded kernel:
// every caller runs on the owning rank's shard.
func (w *Window) recycle(ep *Epoch) {
	if !ep.completed || ep.err != nil || ep.ops > 0 || ep.listed || ep.timed || ep.held {
		return
	}
	if debugPoisonRetired {
		ep.win = nil
		ep.closeReq.Poison()
		return
	}
	ep.nextFree = w.freeEpochs
	w.freeEpochs = ep
}

// releaseClose is the closing request's release hook (mpi.Request.Init):
// Wait handed the request back, so the application is done with the epoch.
func releaseClose(x any) {
	ep := x.(*Epoch)
	ep.held = false
	ep.win.recycle(ep)
}

// canReorder implements the Section VI-B activation predicate between a
// still-active predecessor prev and a candidate next.
func (w *Window) canReorder(prev, next *Epoch) bool {
	if debugFlipReorder {
		return !w.canReorderRules(prev, next)
	}
	return w.canReorderRules(prev, next)
}

func (w *Window) canReorderRules(prev, next *Epoch) bool {
	if prev.kind.reorderExcluded() || next.kind.reorderExcluded() {
		return false
	}
	prevAccess := prev.kind.isAccessRole()
	nextAccess := next.kind.isAccessRole()
	switch {
	case nextAccess && prevAccess:
		return w.info.AAAR
	case nextAccess && !prevAccess:
		return w.info.AAER
	case !nextAccess && !prevAccess:
		return w.info.EAER
	default: // next exposure after prev access
		return w.info.EAAR
	}
}

// scanActivate is the progress-engine activation pass (Section VII-A):
// "Every time an active epoch is completed internally, the progress engine
// scans the existing deferred epochs of the same RMA window and activates
// in sequence all those that do not violate any rule. The scan stops when
// the first deferred epoch is encountered that fails activation
// conditions." Vanilla-mode windows activate at open and never defer.
func (w *Window) scanActivate() {
	w.pruneCompleted()
	for i, ep := range w.epochs {
		if ep.activated {
			continue
		}
		if !w.rules.engineDriven {
			return
		}
		ok := true
		for _, prev := range w.epochs[:i] {
			// A predecessor can complete during this very scan: activating
			// an empty epoch whose grants already arrived completes it on
			// the spot. pruneCompleted ran before the loop, so such an
			// epoch is still in the slice — but a completed epoch imposes
			// no ordering constraint, and skipping it here matters: the
			// wakeup its completion fired was consumed by the current
			// sweep, so stopping the scan on it can deadlock the window.
			if prev.completed {
				continue
			}
			if !w.canReorder(prev, ep) {
				ok = false
				break
			}
		}
		if !ok {
			break // serial activation: never skip an epoch
		}
		w.activate(ep)
	}
}

// activate performs the kind-specific internal activation of an epoch and
// replays its recorded application-level events ("a deferred epoch is
// replayed internally up to its last recorded application-level event").
func (w *Window) activate(ep *Epoch) {
	ep.activated = true
	ep.traceActivate()
	w.requestAccess(ep)
	if ep.kind.isExposureRole() {
		for i, n := 0, ep.groupSize(); i < n; i++ {
			o, _ := ep.peerAt(i)
			w.grantTo(ep, o)
		}
	}
	w.traceArrivals()
	// Replay recorded communication that is already issuable, and if the
	// epoch was closed while deferred, replay the close too.
	w.eng.issueReady(ep, anyNode)
	if ep.closedApp {
		ep.postDones()
		ep.maybeComplete()
	}
}

// requestAccess opens the access side of an activating epoch: every target
// of the group gets its access id A_i, and lock kinds ask each target's
// agent for the lock. MPI_MODE_NOCHECK epochs match nothing and request
// nothing — the caller vouches.
func (w *Window) requestAccess(ep *Epoch) {
	if !ep.kind.isAccessRole() || ep.noCheck {
		return
	}
	if ep.wholeWindow() {
		ep.peers.Fill(w.n)
	}
	locks := ep.kind == EpochLock || ep.kind == EpochLockAll
	var shared int64 // chLockReq's value
	if ep.shared {
		shared = 1
	}
	for i, n := 0, ep.groupSize(); i < n; i++ {
		t, s := ep.peerAt(i)
		s.accessID, s.hasAccess = w.peer(t).nextAccessID(), true
		if locks {
			w.eng.notify(w, t, chLockReq, shared)
		}
	}
}

// grantTo assigns the per-origin exposure id and sends the one-sided grant
// notification (remote g-counter update) to origin o.
func (w *Window) grantTo(ep *Epoch, o int) {
	id := w.peer(o).nextExposureID()
	s := ep.peers.Get(o)
	s.exposeID, s.hasExpose = id, true
	w.eng.notify(w, o, chGrant, id)
}

// Quiesce waits until every epoch of this window has completed internally.
// Useful before tearing a benchmark down; it plays the role of the final
// MPI_WIN_FREE synchronization. Flush-mode windows have no epochs; they
// quiesce when every issued op has remotely completed and no lock-protocol
// operation is in flight (an aborted window is quiescent by definition —
// the abort already unwound everything). A quiesced window drops its free
// epochs: each keeps a slot table as large as its group, and a window that
// quiesces is done with its epochs or about to be freed.
func (w *Window) Quiesce() {
	if w.rank.WaitUntil("win-quiesce", func() bool { return w.impl.quiesced(w) }) {
		w.freeEpochs = nil
	}
}

// quiesced is Quiesce's predicate: every epoch of the window has completed
// internally.
func (newMode) quiesced(w *Window) bool {
	w.pruneCompleted()
	if len(w.epochs) != 0 {
		return false
	}
	// An op that settles at the wire lets its epoch complete with the
	// remote completion still in flight; freeing the window under it would
	// strand the ack, so quiescence also drains the live list (emptied
	// exactly at remote completion; an abort empties it too).
	return w.liveHead == nil
}
