package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Rank is one MPI process. Application code runs in the rank's simulated
// Proc; packet deliveries and progress callbacks run in kernel context.
type Rank struct {
	world *World
	ID    int
	k     *sim.Kernel // the shard kernel this rank lives on
	Proc  *sim.Proc

	// Wake fires whenever anything that might complete a request happens
	// for this rank (delivery, counter update, epoch completion...).
	Wake sim.Signal

	// Two-sided engine state.
	inbox      []*fabric.Packet  // two-sided protocol packets awaiting CPU
	posted     []*Request        // posted receive requests, in post order
	sendOps    map[int64]*sendOp // in-flight rendezvous sends by id
	nextSendID int64             // rendezvous send id allocator
	barrier    barrierState
	completed  Request   // the shared pre-completed request (NewCompletedRequest)
	rma        RMAEngine // the one-sided engine (internal/core), nil without one

	// TimeInMPI accumulates virtual time this rank spent inside blocking
	// MPI calls (used for the paper's Fig 13b/d communication-percentage
	// decomposition).
	TimeInMPI sim.Time

	// pending records which primitive the call in flight on a task rank was
	// in when it last returned pending, waitStart when its wait began, and
	// waitReq the request a blocking call waits on (IssueWait). A coroutine
	// rank's calls never return pending, so all three stay zero.
	pending   pendingIn
	waitStart sim.Time
	waitReq   *Request
	coll      *collState // the progress of a pending collective (coll.go)
}

// pendingIn is the primitive a pending call is parked in.
type pendingIn uint8

const (
	notPending pendingIn = iota
	inSleep              // pause (a charge, Compute)
	inWait               // WaitUntil: every charge before it is paid
)

// RMAEngine is a rank's one-sided engine (internal/core's): the NIC-context
// handler of every packet kind this package does not own, and a CPU
// progress sweep every blocking MPI call on the rank drives.
type RMAEngine interface {
	Deliver(p *fabric.Packet)
	Progress()
}

// init builds rank id in place, in its world's slice of ranks.
func (r *Rank) init(w *World, id int, k *sim.Kernel) {
	*r = Rank{world: w, ID: id, k: k, Wake: *sim.NewSignal(k)}
	r.completed = Request{rank: r, done: true}
}

// Kernel returns the kernel this rank lives on — rank-local work (timers,
// self-deliveries, epoch timeouts) must schedule here, never on a global
// kernel, so it holds on a sharded world.
func (r *Rank) Kernel() *sim.Kernel { return r.k }

// Size returns the job size.
func (r *Rank) Size() int { return len(r.world.ranks) }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.k.Now() }

// Every call of this package and of internal/core is built from three
// primitives — charge the call overhead (ChargeCall), make a zero-time state
// transition, wait for a predicate (WaitUntil) — and is defined once, for
// both rank execution forms. On a coroutine rank the primitives block inline
// and the call returns complete, always. On a task rank (sim.Task) a
// primitive that has to wait arms the proc's wake and the call returns
// pending at once; the task's Step must then return and make the identical
// call again at its next Step, which resumes it: the primitives skip what
// is already paid for, and a call guards its own transitions with state
// kept in the rank or window — a rank has one call in flight — written only
// on the pending path. Return values are those of the completing call.

// Pending reports whether the call just made on this rank returned before
// completing: the task rank's Step must return and repeat it at its next
// Step. Always false on a coroutine rank.
func (r *Rank) Pending() bool { return r.Proc.Armed() }

// pause advances the rank's proc by d and reports whether that is done;
// false means the call is pending.
func (r *Rank) pause(d sim.Time, tag string) bool {
	switch r.pending {
	case inSleep: // the repeat of the call that armed this sleep: it is over
		r.pending = notPending
		return true
	case inWait: // the repeat of a call pending in the wait that follows
		return true
	}
	if r.Proc.TaskSleep(d, tag) {
		r.pending = inSleep
		return false
	}
	return true
}

// Compute models d nanoseconds of CPU-bound application work, during which
// this rank's software progress engines do not run.
func (r *Rank) Compute(d sim.Time) { r.pause(d, "compute") }

// ChargeCall models the CPU cost of entering one MPI routine and reports
// whether it is paid; false means the call is pending. Called from every
// application-facing entry point (two-sided and RMA alike); must only run in
// proc context. A call resumed inside its wait has paid every charge that
// precedes the wait.
func (r *Rank) ChargeCall() bool {
	return r.pause(r.world.Net.Cfg.CallOverhead, "mpi-call")
}

// SetRMA attaches the rank's one-sided engine.
func (r *Rank) SetRMA(e RMAEngine) { r.rma = e }

// onDeliver is the fabric delivery handler: it demultiplexes by packet kind.
// It runs in kernel context (NIC processing) and must not block.
func (r *Rank) onDeliver(p *fabric.Packet) {
	switch p.Kind {
	case fabric.KindEager, fabric.KindRTS, fabric.KindCTS, fabric.KindRData:
		r.inbox = append(r.inbox, p)
		r.Wake.Fire()
	case fabric.KindBarrier:
		// Consumed right here: a token is two integers, so nothing of the
		// (pooled) packet is retained. Recording it in NIC context instead
		// of at the rank's next sweep moves no virtual time — only a rank
		// inside Barrier ever looks, and it sweeps before it looks.
		r.barrier.arrive(p.Arg[0], p.Arg[1])
		r.Wake.Fire()
	default:
		if r.rma == nil {
			panic(fmt.Sprintf("mpi: rank %d received RMA packet kind %d with no RMA engine", r.ID, p.Kind))
		}
		r.rma.Deliver(p)
	}
}

// Progress runs one sweep of every software progress engine owned by this
// rank: the two-sided engine first, then the RMA engine, if any. Both
// engines collaborate, so progress made in one can unblock the other.
func (r *Rank) Progress() {
	r.progressTwoSided()
	if r.rma != nil {
		r.rma.Progress()
	}
}

// WaitUntil waits until pred holds, driving Progress and accounting the
// elapsed time as MPI time, and reports whether it does; false means the
// call is pending. tag describes the wait for deadlock diagnostics. Each
// Step of a task rank is one iteration of the coroutine rank's loop.
func (r *Rank) WaitUntil(tag string, pred func() bool) bool {
	start := r.Now()
	if r.pending == inWait {
		start, r.pending = r.waitStart, notPending
	}
	for {
		r.Progress()
		if pred() {
			r.TimeInMPI += r.Now() - start
			return true
		}
		r.Wake.Wait(r.Proc, tag)
		if r.Proc.Armed() {
			r.pending, r.waitStart = inWait, start
			return false
		}
	}
}

// Wait waits until every given request has completed, then hands each back
// to its owner (Request.Init). A request Wait returned done is dead to the
// caller, as MPI sets it to MPI_REQUEST_NULL: its owner may reuse it from the
// caller's next call on, so the caller reads its Err at once, if at all, and
// never waits on it again.
func (r *Rank) Wait(reqs ...*Request) {
	for _, q := range reqs {
		if q != nil {
			q.checkLive()
		}
	}
	if !r.ChargeCall() || !r.WaitUntil("waitall", func() bool {
		for _, q := range reqs {
			if q != nil && !q.done {
				return false
			}
		}
		return true
	}) {
		return
	}
	for _, q := range reqs {
		if q != nil {
			q.handBack()
		}
	}
}

// IssueWait is Section V's definition of a blocking call: its nonblocking
// form (issue), then a wait for the request that form returned. It returns
// that request once complete, nil while the call is pending — or when issue
// returned no request, which is how a nonblocking form that failed reports
// it: nothing is waited for. The repeat of a call pending in the wait finds
// the request in the rank and does not issue again.
func (r *Rank) IssueWait(issue func() *Request) *Request {
	req := r.waitReq
	if req == nil {
		if req = issue(); req == nil || r.Pending() {
			return nil
		}
	}
	r.waitReq = nil
	if r.Wait(req); r.Pending() {
		r.waitReq = req
		return nil
	}
	return req
}

// Send injects a packet built by the caller. Exposed for internal/core.
func (r *Rank) Send(p *fabric.Packet) { r.world.Net.Send(p) }
