package mpi

import (
	"repro/internal/fabric"
	"repro/internal/sim"
)

// barrierState tracks dissemination-barrier tokens. Tokens are keyed by
// (generation, round) so overlapping generations from fast peers are safe.
type barrierState struct {
	gen  int64
	seen map[[2]int64]bool
}

// arrive records an incoming token for (generation, round).
func (b *barrierState) arrive(gen, round int64) {
	if b.seen == nil {
		b.seen = make(map[[2]int64]bool)
	}
	b.seen[[2]int64{gen, round}] = true
}

// take consumes a token if present.
func (b *barrierState) take(gen, round int64) bool {
	key := [2]int64{gen, round}
	if b.seen[key] {
		delete(b.seen, key)
		return true
	}
	return false
}

// sendToken sends the (gen, round) token to dst in a pooled packet: the
// receiver consumes it at delivery (Rank.onDeliver), so a steady-state
// barrier allocates nothing.
func (r *Rank) sendToken(dst int, gen, round int64) {
	p := r.world.Net.AllocPacketAt(r.ID)
	p.Src, p.Dst, p.Kind, p.Size = r.ID, dst, fabric.KindBarrier, 8
	p.Arg = [4]int64{gen, round, 0, 0}
	r.world.Net.Send(p)
}

// Barrier blocks until every rank in the job has entered the barrier, using
// the dissemination algorithm (ceil(log2 n) rounds of token exchanges).
func (r *Rank) Barrier() {
	r.ChargeCall()
	n := r.Size()
	if n == 1 {
		return
	}
	r.barrier.gen++
	gen := r.barrier.gen
	for round, dist := int64(0), 1; dist < n; round, dist = round+1, dist*2 {
		r.sendToken((r.ID+dist)%n, gen, round)
		rd := round
		r.waitUntil("barrier", func() bool { return r.barrier.take(gen, rd) })
	}
}

// TaskBarrier is the resumable form of Barrier for task-mode ranks: the
// dissemination rounds unrolled across Steps. The caller models Barrier's
// ChargeCall with an explicit TaskSleep(CallOverhead) BEFORE the first
// Step, matching the blocking call's charge-then-advance order; it then
// calls Step until it returns true, returning from the task's Step whenever
// Step returns false.
type TaskBarrier struct {
	r     *Rank
	gen   int64
	round int64
	dist  int
	sent  bool
}

// NewTaskBarrier opens a new barrier generation (mirroring Barrier's gen
// advance after its charge) and returns the resumable rounds.
func (r *Rank) NewTaskBarrier() *TaskBarrier {
	b := &TaskBarrier{r: r, dist: 1}
	if r.Size() > 1 {
		r.barrier.gen++
		b.gen = r.barrier.gen
	}
	return b
}

// Step advances the dissemination rounds as far as token arrivals allow and
// reports whether the barrier is complete. While false, the calling task
// has been armed on the rank's Wake signal and must return from its Step.
func (b *TaskBarrier) Step(p *sim.Proc) bool {
	r := b.r
	n := r.Size()
	for b.dist < n {
		if !b.sent {
			r.sendToken((r.ID+b.dist)%n, b.gen, b.round)
			b.sent = true
		}
		gen, rd := b.gen, b.round
		if !r.TaskAwait(p, "barrier", func() bool { return r.barrier.take(gen, rd) }) {
			return false
		}
		b.round++
		b.dist *= 2
		b.sent = false
	}
	return true
}
