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
	Wake *sim.Signal

	// Two-sided engine state.
	inbox      []*fabric.Packet  // two-sided protocol packets awaiting CPU
	posted     []*Request        // posted receive requests, in post order
	sendOps    map[int64]*sendOp // in-flight rendezvous sends by id
	nextSendID int64             // rendezvous send id allocator
	barrier    barrierState
	completed  Request              // the shared pre-completed request (NewCompletedRequest)
	rmaHandler func(*fabric.Packet) // NIC-level RMA handler (internal/core)
	progressFn []func()             // extra CPU progress engines (internal/core)

	// TimeInMPI accumulates virtual time this rank spent inside blocking
	// MPI calls (used for the paper's Fig 13b/d communication-percentage
	// decomposition).
	TimeInMPI sim.Time
}

func newRank(w *World, id int, k *sim.Kernel) *Rank {
	r := &Rank{world: w, ID: id, k: k, Wake: sim.NewSignal(k)}
	r.completed = Request{rank: r, done: true}
	return r
}

// World returns the job this rank belongs to.
func (r *Rank) World() *World { return r.world }

// Kernel returns the kernel this rank lives on — rank-local work (timers,
// self-deliveries, epoch timeouts) must schedule here, never on a global
// kernel, so it holds on a sharded world.
func (r *Rank) Kernel() *sim.Kernel { return r.k }

// Size returns the job size.
func (r *Rank) Size() int { return len(r.world.ranks) }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.k.Now() }

// Compute models d nanoseconds of CPU-bound application work, during which
// this rank's software progress engines do not run.
func (r *Rank) Compute(d sim.Time) { r.Proc.Compute(d) }

// ChargeCall models the CPU cost of entering one MPI routine. Called from
// every application-facing entry point (two-sided and RMA alike); must
// only run in proc context.
func (r *Rank) ChargeCall() {
	if d := r.world.Net.Cfg.CallOverhead; d > 0 {
		r.Proc.Compute(d)
	}
}

// SetRMAHandler installs the NIC-context handler for RMA packet kinds.
func (r *Rank) SetRMAHandler(h func(*fabric.Packet)) { r.rmaHandler = h }

// AddProgress registers an additional CPU progress function; every blocking
// MPI call on this rank drives all registered engines.
func (r *Rank) AddProgress(fn func()) { r.progressFn = append(r.progressFn, fn) }

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
		if r.rmaHandler == nil {
			panic(fmt.Sprintf("mpi: rank %d received RMA packet kind %d with no RMA handler", r.ID, p.Kind))
		}
		r.rmaHandler(p)
	}
}

// Progress runs one sweep of every software progress engine owned by this
// rank: the two-sided engine first, then any registered RMA engines. Both
// engines collaborate, so progress made in one can unblock the other.
func (r *Rank) Progress() {
	r.progressTwoSided()
	for _, fn := range r.progressFn {
		fn()
	}
}

// waitUntil blocks the rank's proc until pred holds, driving Progress and
// accounting the elapsed time as MPI time. tag describes the wait for
// deadlock diagnostics.
func (r *Rank) waitUntil(tag string, pred func() bool) {
	start := r.Now()
	for {
		r.Progress()
		if pred() {
			break
		}
		r.Wake.Wait(r.Proc, tag)
	}
	r.TimeInMPI += r.Now() - start
}

// WaitUntil is the exported form of waitUntil for use by internal/core when
// implementing blocking RMA synchronizations.
func (r *Rank) WaitUntil(tag string, pred func() bool) { r.waitUntil(tag, pred) }

// TaskAwait is one iteration of waitUntil for task-mode ranks (sim.Task
// bodies): it sweeps the progress engines, returns true if pred already
// holds, and otherwise arms the rank's Wake signal and returns false — the
// task's Step must then return and re-call TaskAwait on its next wake.
// Scheduling-wise this is exactly the blocking waitUntil loop unrolled
// across Steps. TimeInMPI is not accounted for task ranks: the state
// machine has no single blocking span to attribute, and the scale paths
// that run on tasks do not consume the Fig 13 decomposition.
func (r *Rank) TaskAwait(p *sim.Proc, tag string, pred func() bool) bool {
	r.Progress()
	if pred() {
		return true
	}
	r.Wake.Wait(p, tag)
	return false
}

// CallOverhead returns the configured per-MPI-call CPU cost. Task-mode rank
// programs model each ChargeCall of the blocking API as an explicit
// TaskSleep of this duration (TaskSleep ignores non-positive values exactly
// as ChargeCall does).
func (r *Rank) CallOverhead() sim.Time { return r.world.Net.Cfg.CallOverhead }

// Wait blocks until every given request has completed.
func (r *Rank) Wait(reqs ...*Request) {
	r.ChargeCall()
	r.waitUntil("waitall", func() bool {
		for _, q := range reqs {
			if q != nil && !q.done {
				return false
			}
		}
		return true
	})
}

// Test drives progress once and reports whether req has completed.
func (r *Rank) Test(req *Request) bool {
	r.ChargeCall()
	start := r.Now()
	r.Progress()
	r.TimeInMPI += r.Now() - start
	return req == nil || req.done
}

// Send injects a packet built by the caller. Exposed for internal/core.
func (r *Rank) Send(p *fabric.Packet) { r.world.Net.Send(p) }
