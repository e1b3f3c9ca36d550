package core

import (
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// Engine is one rank's RMA progress engine. It has two faces:
//
//   - Deliver runs in kernel context on packet delivery and models the
//     autonomous NIC/HCA: it fulfils data transfers into window memory,
//     updates the one-sided ω counters, serves the passive-target lock
//     agent for internode requesters, and raises completion events — all
//     without the owning rank's CPU;
//   - Progress runs in the rank's proc context whenever the rank is inside
//     an MPI call, and performs the CPU-side sweep of Section VII-D's
//     seven steps.
//
// The engine attaches itself to its mpi.Rank (mpi.RMAEngine) so that — per
// the paper — RMA calls progress two-sided/collective traffic and vice
// versa. A runtime's engines are one slice, one per rank.
type Engine struct {
	rt   *Runtime
	rank *mpi.Rank
	ctr  metrics.Row // the rank's row of the world's metrics set
	pl   *pools      // where the rank's windows take ops and peer arrays

	// windows holds the rank's windows by id, the order of creation, nil
	// once freed; winList the live ones, the order every sweep visits
	// them in. first is where each keeps its first window: most ranks
	// create one.
	windows []*Window
	winList []*Window
	first   [2][1]*Window

	// cpuQueue holds the ops whose accumulate-rendezvous CTS arrived: they
	// need origin CPU processing before their data leaves — consumed in
	// step 1. cpuSpare is the drained batch's storage, reused.
	cpuQueue, cpuSpare []*rmaOp

	// backlog holds intranode FIFO words that did not fit their ring —
	// retried in step 4.
	backlog []fifoWordTo

	// lockBacklog holds intranode lock/unlock words queued by step 5 for
	// batch processing in step 6.
	lockBacklog []uint64

	// dead[p] records that the fabric declared peer p unreachable from this
	// rank (see errors.go); allocated lazily on the first declaration.
	dead []bool

	// call is the resume state of the one call in flight on a task rank
	// (mpi.Rank.Pending).
	call callState
}

// callState is what a pending call had built or reached before the
// primitive that armed the task rank's wake; the repeat of the call takes it
// from here instead of making the transition again. A rank has one call in
// flight, so one record per engine serves every window. Fields but err are
// written only on the pending path: on a coroutine rank they stay zero.
type callState struct {
	win   *Window // CreateWindow: created, inside the barrier; Free: quiesced, inside it
	ep    *Epoch  // epoch opens: built, not yet pushed; staged calls: the epoch waited on
	stage int     // staged calls (vanilla closes, blocking flushes): the wait reached; 0 = fresh
	fence *Epoch  // IFence: the fence epoch it closed, inside the next one's open
	lo    *lockOp // flush-mode unlocks: registered, inside the flush

	// err is what the last call that failed under WinOptions.ErrorsReturn
	// recorded, until Window.TakeErr reads it.
	err error
}

// resume takes a staged call's saved epoch and stage (stage 0: a fresh call)
// and clears them: they are written again only if the call pends again.
func (c *callState) resume() (*Epoch, int) {
	ep, stage := c.ep, c.stage
	c.ep, c.stage = nil, 0
	return ep, stage
}

type fifoWordTo struct {
	dst  int
	word uint64
}

// init builds rank r's engine in place, in its runtime's slice of engines.
func (e *Engine) init(rt *Runtime, r *mpi.Rank, pl *pools) {
	*e = Engine{rt: rt, rank: r, pl: pl, ctr: rt.world.Net.Counters.Row(r.ID)}
	e.windows, e.winList = e.first[0][:0], e.first[1][:0]
	r.SetRMA(e)
}

// Progress performs one comprehensive nonblocking sweep of all pending RMA
// activity, following the seven steps of Section VII-D.
func (e *Engine) Progress() {
	// Step 1: verification of the completion of outgoing and incoming
	// internode messages. Completion-queue processing (credit recovery,
	// registration-cache put-back) is NIC-modeled; what remains for the
	// CPU are deferred completion events such as accumulate-rendezvous CTS
	// handling.
	e.drainCPUQueue()
	// Step 2: posting of internode RMA communications.
	e.postReady(interNode)
	// Step 3: batch completion of all possible epochs and activation of
	// some deferred epochs.
	e.completeAndActivate()
	// Step 4: posting of intranode RMA communications (plus retrying FIFO
	// words that found their ring full).
	e.postReady(intraNode)
	e.flushBacklog()
	// Step 5: consumption of intranode notifications.
	e.consumeFifos()
	// Step 6: batch processing of lock/unlock requests queued by step 5.
	e.processLockBacklog()
	// Step 7: identical to step 3 — epochs whose conditions were satisfied
	// by steps 4-6 must complete without waiting for the next sweep.
	e.completeAndActivate()
}

// drainCPUQueue sends the data of every op whose CTS arrived. The batch is
// swapped out before it is drained, so an op queued meanwhile lands in the
// other slice and the next pass of the loop sends it.
func (e *Engine) drainCPUQueue() {
	for len(e.cpuQueue) > 0 {
		q := e.cpuQueue
		e.cpuQueue = e.cpuSpare[:0]
		for i, o := range q {
			o.ctsWait = false
			e.post(o, fabric.KindAccData, o.size)
			q[i] = nil
		}
		e.cpuSpare = q[:0]
	}
}

// postReady issues grant-ready recorded ops of one locality (steps 2 and
// 4); ops toward the other locality stay recorded for the other step.
func (e *Engine) postReady(scope nodeScope) {
	for _, w := range e.winList {
		for _, ep := range w.epochs {
			// Vanilla issues only from its closing synchronizations.
			if ep.activated && ep.recLive > 0 && w.rules.engineDriven {
				e.issueReady(ep, scope)
			}
		}
	}
}

func (e *Engine) completeAndActivate() {
	for _, w := range e.winList {
		for _, ep := range w.epochs {
			ep.maybeComplete()
		}
		w.scanActivate()
		w.dirty = false
	}
}

// Deliver demultiplexes RMA packets in kernel context: the NIC face.
// Data-path packets carry their origin's *rmaOp as payload (see rmaOp).
func (e *Engine) Deliver(p *fabric.Packet) {
	switch p.Kind {
	case fabric.KindPutData, fabric.KindAccData:
		o, tw := e.landed(p)
		tw.fulfil(o, false)
		e.ackOp(p.Src, o)

	case fabric.KindGetReq:
		o, tw := e.landed(p)
		e.respond(p, fabric.KindGetResp, o, o.size, tw.fulfil(o, false))

	case fabric.KindGetAccReq:
		o, tw := e.landed(p)
		e.respond(p, fabric.KindGetAccResp, o, ctrlBytes+o.size, tw.fulfil(o, false))

	case fabric.KindCASReq:
		o, tw := e.landed(p)
		e.respond(p, fabric.KindCASResp, o, ctrlBytes+o.size, tw.fulfil(o, false))

	case fabric.KindGetResp, fabric.KindGetAccResp, fabric.KindCASResp:
		o := p.Payload.(*rmaOp)
		copy(o.buf, o.resp) // checkOp trimmed buf to the response's size; nil copies nothing
		o.engine().opDelivered(o)

	case fabric.KindAccRTS:
		// Target-side intermediate buffer reserved; clear the origin to
		// send. The CTS needs origin CPU processing (step 1), which is
		// exactly what denies overlapping to large accumulates.
		e.respond(p, fabric.KindAccCTS, p.Payload.(*rmaOp), ctrlBytes, nil)

	case fabric.KindAccCTS:
		e.cpuQueue = append(e.cpuQueue, p.Payload.(*rmaOp))
		e.rank.Wake.Fire()

	case fabric.KindSignal, fabric.KindPostNotify, fabric.KindDone, fabric.KindLockReq, fabric.KindUnlock:
		// Control plane (control.go): either wire format decodes to one
		// apply, here in NIC context — counters and the lock agent are
		// served without the owning rank's CPU.
		w := e.win(p.Arg[0])
		ch, value := w.decode(p)
		e.apply(w, p.Src, ch, value)

	case fabric.KindLockAtomic:
		// foMPI-style conditional atomic on a lock counter this rank hosts
		// (flush mode). Executed right here in NIC context — the hardware-
		// atomics model: the target CPU is never involved.
		w := e.win(p.Arg[0])
		fm, isFlush := w.impl.(*flushState)
		if !isFlush {
			e.raisef("lock atomic from %d on non-flush-mode window %d", p.Src, w.id)
		}
		ok := int64(0)
		if fm.applyAtomic(p.Arg[1]) {
			ok = 1
		}
		q := e.rt.world.Net.AllocPacketAt(e.rank.ID)
		q.Src, q.Dst, q.Kind, q.Size = e.rank.ID, p.Src, fabric.KindLockAtomicResp, ctrlBytes
		q.Payload = p.Payload
		q.Arg = [4]int64{p.Arg[0], p.Arg[1], ok, 0}
		e.rank.Send(q)

	case fabric.KindLockAtomicResp:
		lo := p.Payload.(*lockOp)
		lo.advance(p.Arg[1], p.Arg[2] == 1)

	default:
		e.raisef("unexpected packet kind %d from %d", p.Kind, p.Src)
	}
}

// landed resolves a data-path packet at its target, returning the op and
// the target window, and stamps the op's landing there (tracing.go).
func (e *Engine) landed(p *fabric.Packet) (*rmaOp, *Window) {
	o, tw := p.Payload.(*rmaOp), e.win(p.Arg[0])
	tw.traceLanded(p.Src, p.Arg[1], o)
	return o, tw
}

// ackOp raises origin-side remote completion for a data transfer just
// fulfilled at this (target) rank. Intranode the origin's completion queue
// is shared memory and the completion is visible immediately: the origin
// engine is driven inline, and node-granular shard assignment guarantees it
// lives on this shard. Internode the origin's NIC learns through the
// hardware ACK propagating back across the base latency, so the completion
// is a band-1 cross event Alpha away — the reverse edge that lets a sharded
// run keep its lookahead (and why Network.Lookahead is capped at Alpha).
// Serial kernels execute the same event at the same instant, so the two
// modes stay bit-identical.
func (e *Engine) ackOp(origin int, o *rmaOp) {
	cfg := &e.rt.world.Net.Cfg
	if cfg.SameNode(e.rank.ID, origin) {
		o.engine().opDelivered(o)
		return
	}
	k := e.rank.Kernel()
	k.AtCross(k.Now()+cfg.Alpha, opDeliveredEvent, o, e.rank.ID, origin)
}

// opDeliveredEvent is ackOp's shared, capture-free event body.
func opDeliveredEvent(x any) {
	o := x.(*rmaOp)
	o.engine().opDelivered(o)
}

// win resolves a window id on this rank.
func (e *Engine) win(id int64) *Window {
	if id < 0 || id >= int64(len(e.windows)) || e.windows[id] == nil {
		e.raisef("no window %d", id)
	}
	return e.windows[id]
}

// respond posts a response packet back to the requester (NIC-autonomous),
// parking the fetched value in the op for the response leg.
func (e *Engine) respond(req *fabric.Packet, kind fabric.Kind, o *rmaOp, size int64, data []byte) {
	o.resp = data
	p := e.rt.world.Net.AllocPacketAt(e.rank.ID)
	p.Src, p.Dst, p.Kind, p.Size = e.rank.ID, req.Src, kind, size
	p.Payload = o
	p.Arg = [4]int64{req.Arg[0], 0, 0, 0}
	e.rank.Send(p)
}

// deliverSelf fulfils a self-targeted op through the loopback path after
// the intranode copy latency; scheduling it as an event avoids reentering
// epoch state mid-issue.
func (e *Engine) deliverSelf(o *rmaOp) {
	cfg := e.rt.world.Net.Cfg
	e.rank.Kernel().AfterCall(cfg.AlphaIntra+cfg.IntraCopyTime(o.size), selfDeliverEvent, o)
}

// selfDeliverEvent is deliverSelf's shared, capture-free event body.
func selfDeliverEvent(x any) {
	o := x.(*rmaOp)
	w := o.ep.win
	if w.eng.rt.tracer != nil {
		w.traceLanded(w.rank.ID, o.ep.peers.Find(o.target).accessID, o)
	}
	copy(o.buf, w.fulfil(o, true))
	w.eng.opDelivered(o)
}
