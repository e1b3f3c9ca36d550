package core

import (
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// opClass is the communication class of an rmaOp.
type opClass int

const (
	opPut opClass = iota
	opGet
	opAcc
	opGetAcc
	opCAS
)

// rmaOp is one RMA communication call, recorded against its epoch and
// issued to the NIC once the epoch is active and the target has granted
// access. It is also its own wire handle: data-path packets carry the *rmaOp
// as payload, so the target-side NIC handler reads the transfer from it and
// raises origin-side completion (the simulation's completion-queue event) on
// its engine, and the response leg parks the fetched value in resp. A
// finished op goes back to its kernel's pool (Window.retire).
type rmaOp struct {
	ep     *Epoch
	class  opClass
	target int
	off    int64
	size   int64
	data   []byte // origin operand (put/accumulate payload, CAS swap value)
	buf    []byte // origin destination (get/fetch results)
	cmp    []byte // CAS compare value
	dtype  DType
	op     AccOp
	age    int64        // monotonic age, for flush stamping (Section VII-C)
	vec    vecShape     // strided layout; zero for contiguous ops
	req    *mpi.Request // request-based variants; nil otherwise
	resp   []byte       // fetched value carried by the response leg

	// Intrusive links of the epoch's recorded-op queues (epoch.go): program
	// order across targets, and program order toward this op's target.
	nextRec, nextTgt *rmaOp
	// Intrusive links of the window's live list, oldest first (window.go);
	// nextLive also chains the op pool's free list (Runtime.pools).
	prevLive, nextLive *rmaOp

	issuedAt, landedAt sim.Time // trace stamps: issue at the origin, landing at the target

	issued     bool
	localDone  bool // payload left the origin buffer (wire transmission done)
	remoteDone bool // transfer fulfilled at the target (and response received)
	ctsWait    bool // large accumulate waiting for its rendezvous CTS
	live       bool // on the window's live list
	logged     bool // on the epoch's program-order log
	settled    bool // opDelivered has returned
}

// addOp is the body of every RMA communication call: check the op, find its
// epoch, charge the call, then record and (when possible) immediately issue
// the op. The op arrives by value and takes its heap slot — a retired op of
// the window when there is one — only after the charge, so the repeat of a
// pending call does not take a second one. A request-based call (withReq)
// gets its request here too, after the charge: a pending call returns nil,
// like every I-form, and so does one whose epoch aborted.
func (w *Window) addOp(op rmaOp, withReq bool) *mpi.Request {
	w.checkLive()
	w.checkOp(&op)
	op.ep = w.impl.accessEpoch(w, op.target)
	if !w.rank.ChargeCall() {
		return nil
	}
	if op.ep.err != nil {
		// The surrounding epoch was aborted (dead peer / timeout): issuing
		// further communication on it is erroneous.
		w.fail(op.ep.err)
		return nil
	}
	o := w.eng.pl.ops.Get()
	*o = op
	o.ep.ops++
	if withReq {
		o.req = mpi.NewRequest(w.rank)
	}
	req := o.req
	w.opAge++
	o.age = w.opAge
	w.linkLive(o)
	w.eng.ctr.Add(cOpsIssued, 1)
	if o.class == opPut || o.class == opAcc {
		w.eng.ctr.Add(cBytesOut, o.size)
	}
	w.impl.admit(w, o.ep, o)
	return req
}

// admit records the op and issues it at once if its epoch is active and
// the target has granted.
func (newMode) admit(w *Window, ep *Epoch, o *rmaOp) {
	ep.record(o)
	if ep.activated {
		w.eng.issueBucket(ep, o.target)
	}
}

// retire returns op o to its pool once nothing can reach it
// any more, which takes all four of:
//
//  1. opDelivered has returned (settled). remoteDone is not enough: the
//     completions opDelivered raises (request hooks, maybeComplete) run
//     while it still uses the op;
//  2. o is off its epoch's program-order log (an op issued through its
//     target's queue stays logged until the next issueReady pass or the
//     epoch's completion) and off its target queue (true from issue on);
//  3. o is off the window's live list (its delivery unlinks it);
//  4. its epoch did not abort: an aborted epoch's ops still in flight may be
//     delivered later, so they are left to the GC.
//
// Every place that can make the last of these true calls retire, so it runs
// exactly once per op. The pool needs no lock on a sharded kernel:
// every caller runs on the origin rank's shard. opDelivered does — the ack is
// an AtCross event to the origin (inline only intranode, and shards are
// node-granular), the fetch response is delivered at the origin, and self
// delivery is a local event — and so do the log's traversals, which are
// origin engine state. The fabric hands each packet to its handler once (the
// ARQ drops duplicates, OnTxDone fires once), so no late copy reaches a
// recycled op. The epoch's last op to retire offers the epoch to recycle.
func (w *Window) retire(o *rmaOp) {
	ep := o.ep
	if !o.settled || o.logged || ep.err != nil {
		return
	}
	if debugPoisonRetired {
		o.ep, o.class, o.target = nil, -1, -1
	} else {
		w.eng.pl.ops.Put(o)
	}
	if ep.ops--; ep.ops == 0 {
		w.recycle(ep)
	}
}

// issueBucket issues every recorded op toward target t, in program order,
// provided t has granted access. O(bucket) — the fast path driven by
// grant arrivals and op calls.
func (e *Engine) issueBucket(ep *Epoch, t int) {
	s := ep.peers.Find(t)
	if s == nil || s.recHead == nil || !ep.granted(t) {
		return
	}
	o := s.recHead
	s.recHead, s.recTail = nil, nil
	for o != nil {
		next := o.nextTgt
		o.nextTgt = nil
		ep.recLive--
		e.issue(o)
		o = next
	}
}

// nodeScope restricts issueReady to one target locality, splitting the
// progress sweep into the paper's steps 2 (internode) and 4 (intranode).
type nodeScope int8

const (
	anyNode nodeScope = iota
	interNode
	intraNode
)

// issueReady issues, in program order, every recorded op of the given
// locality whose target has granted access, and leaves the rest recorded.
// It runs in engine (CPU) context — and in the vanilla closing
// synchronizations, which force-issue regardless of recording.
func (e *Engine) issueReady(ep *Epoch, scope nodeScope) {
	cfg := &e.rt.world.Net.Cfg
	o := ep.recHead
	ep.recHead, ep.recTail = nil, nil
	for o != nil {
		next := o.nextRec
		o.nextRec, o.logged = nil, false
		switch {
		case o.issued:
			// Went out through its target's queue (issueBucket); drop it.
			ep.win.retire(o)
		case (scope == anyNode || (scope == intraNode) == cfg.SameNode(e.rank.ID, o.target)) &&
			ep.granted(o.target):
			// Program order restricted to one target is that target's queue
			// order, so o heads its queue.
			s := ep.peers.Find(o.target)
			if s.recHead != o {
				ep.win.raisef("recorded-op queues of %s disagree toward target %d", ep, o.target)
			}
			if s.recHead = o.nextTgt; s.recHead == nil {
				s.recTail = nil
			}
			o.nextTgt = nil
			ep.recLive--
			e.issue(o)
		default:
			ep.logRecorded(o)
		}
		o = next
	}
}

// issue hands one op to the fabric. Issue order per target equals program
// order, and the NIC's per-peer FIFO keeps done packets behind data.
func (e *Engine) issue(o *rmaOp) {
	ep := o.ep
	o.issued = true
	o.issuedAt = e.rank.Now()
	s := ep.peers.Get(o.target)
	s.pending++
	ep.pendingAll++
	if o.target == e.rank.ID {
		// Self communication: fulfilled through the loopback path below.
		e.deliverSelf(o)
		return
	}
	switch o.class {
	case opPut:
		e.post(o, fabric.KindPutData, o.size)
	case opGet:
		e.post(o, fabric.KindGetReq, ctrlBytes)
	case opAcc:
		if o.size > mpi.EagerThreshold {
			// Large accumulates need a target-side intermediate buffer: a
			// rendezvous whose CTS is processed by the origin CPU. This is
			// what denies communication/computation overlapping to >8 KB
			// accumulates in every implementation (Section VIII-A).
			o.ctsWait = true
			e.post(o, fabric.KindAccRTS, ctrlBytes)
		} else {
			e.post(o, fabric.KindAccData, o.size)
		}
	case opGetAcc:
		e.post(o, fabric.KindGetAccReq, ctrlBytes+o.size)
	case opCAS:
		e.post(o, fabric.KindCASReq, ctrlBytes+2*o.size)
	}
}

// ctrlBytes is the wire size charged for small protocol headers.
const ctrlBytes = 32

// post sends the packet carrying op o toward its target.
func (e *Engine) post(o *rmaOp, kind fabric.Kind, wireSize int64) {
	p := e.rt.world.Net.AllocPacketAt(e.rank.ID)
	p.Src, p.Dst, p.Kind, p.Size = e.rank.ID, o.target, kind, wireSize
	p.Payload = o
	p.Arg = [4]int64{o.ep.win.id, 0, 0, regionKey(o.ep.win)}
	if e.rt.tracer != nil { // the target pairs the landing with its exposure
		p.Arg[1] = o.ep.peers.Find(o.target).accessID
	}
	if kind == fabric.KindPutData || kind == fabric.KindAccData {
		p.OnTxDone = opTxDone
	}
	e.rank.Send(p)
}

// engine returns the origin engine of op o.
func (o *rmaOp) engine() *Engine { return o.ep.win.eng }

// opTxDone is the shared, capture-free wire-completion callback of data
// packets: the fabric fires it before the packet is delivered (and so before
// the pool can recycle it), which is why reading p.Payload here is safe.
func opTxDone(p *fabric.Packet) {
	o := p.Payload.(*rmaOp)
	o.engine().opLocalDone(o)
}

// regionKey identifies the local memory region backing an op for the
// registration-cache model. Registration (pinning) is a property of local
// memory, so the key is the window — one pin covers transfers to any
// number of targets.
func regionKey(w *Window) int64 {
	return w.id + 1
}

// opLocalDone marks local completion (origin buffer reusable) and settles
// local flushes, and the op itself where it settles at the wire.
func (e *Engine) opLocalDone(o *rmaOp) {
	if o.localDone {
		return
	}
	o.localDone = true
	ep := o.ep
	ep.win.settleFlushes(o, true)
	if ep.win.settlesAtWire(o) {
		ep.settle(o)
		if ep.closedApp {
			ep.maybePostDone(o.target)
			ep.maybeComplete()
		}
	}
	e.rank.Wake.Fire()
}

// opDelivered marks remote completion: the transfer (and any response) is
// fulfilled. It may post the target's done packet and complete the epoch,
// and retires the op once it no longer uses it. Runs in NIC context
// (completion-queue processing).
func (e *Engine) opDelivered(o *rmaOp) {
	if o.remoteDone {
		return
	}
	o.remoteDone = true
	if !o.localDone {
		e.opLocalDone(o)
	}
	ep := o.ep
	if !ep.win.settlesAtWire(o) {
		ep.settle(o)
	}
	ep.win.settleFlushes(o, false)
	if o.req != nil {
		o.req.Complete()
	}
	if ep.closedApp && ep.win.rules.engineDriven {
		ep.maybePostDone(o.target)
		ep.maybeComplete()
	}
	e.rank.Wake.Fire()
	if s := ep.span(); s != nil { // the last op to settle is the critical path's
		s.Issue, s.Land = o.issuedAt, o.landedAt
	}
	o.settled = true
	ep.win.retire(o)
}

// settle counts op o out of its epoch's outstanding ops, at the one point
// Window.settlesAtWire chooses: local or remote completion.
func (ep *Epoch) settle(o *rmaOp) {
	s := ep.peers.Get(o.target)
	s.pending--
	ep.pendingAll--
	if s.pending < 0 || ep.pendingAll < 0 {
		ep.win.raisef("op completion accounting went negative on %s (target %d)", ep, o.target)
	}
}

// maybePostDone posts the done/unlock packet for target t once every
// completion condition for t holds: "completion notification packets are
// sent to each target epoch as soon as the last RMA transfer meant for the
// target is fulfilled" (Section VII-D). The NIC's per-peer ordering makes
// the notification arrive after the epoch's data.
func (ep *Epoch) maybePostDone(t int) {
	if ep.err != nil {
		return // aborted epochs must not signal successful completion
	}
	if !ep.activated || !ep.closedApp {
		return
	}
	s := ep.peers.Find(t)
	if s == nil || s.donePosted || s.recHead != nil || s.pending > 0 {
		return
	}
	switch ep.kind {
	case EpochLock, EpochLockAll:
		if !ep.granted(t) {
			return // cannot release a lock that was never acquired
		}
		s.donePosted = true
		ep.doneCount++
		if ep.noCheck {
			ep.win.releaseNoCheck(t)
		} else {
			ep.win.eng.notify(ep.win, t, chUnlock, 0)
		}
	case EpochAccess, EpochFence:
		if s.used && !ep.granted(t) {
			return // data still owed to t; done must follow it
		}
		s.donePosted = true
		ep.doneCount++
		ep.win.eng.notify(ep.win, t, chDone, s.accessID)
	}
}
