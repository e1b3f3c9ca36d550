package mpi

import "repro/internal/fabric"

// barrierState tracks dissemination-barrier tokens. Tokens are keyed by
// (generation, round) so overlapping generations from fast peers are safe.
// round and dist are the position of the barrier in flight; dist is zero
// between barriers.
type barrierState struct {
	gen   int64
	seen  map[[2]int64]bool
	round int64
	dist  int
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

// Barrier waits until every rank in the job has entered the barrier, using
// the dissemination algorithm (ceil(log2 n) rounds of token exchanges).
func (r *Rank) Barrier() {
	b, n := &r.barrier, r.Size()
	if b.dist == 0 { // a new barrier, not the repeat of a pending one
		if !r.ChargeCall() || n == 1 {
			return
		}
		b.gen++
		b.round, b.dist = 0, 1
		r.sendToken((r.ID+1)%n, b.gen, 0)
	}
	for r.WaitUntil("barrier", func() bool { return b.take(b.gen, b.round) }) {
		b.round++
		if b.dist *= 2; b.dist >= n {
			b.dist = 0
			return
		}
		r.sendToken((r.ID+b.dist)%n, b.gen, b.round)
	}
}
