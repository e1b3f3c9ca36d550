package mpi

import "repro/internal/fabric"

// barrierState tracks dissemination-barrier tokens as bits: seen[g&1] holds
// generation g's, bit k for round k (a barrier of fabric.MaxRanks ranks has
// 18 rounds). Two words suffice because only generations g and g+1 can have
// tokens outstanding at a rank whose last barrier entered is g. Tokens of
// g-1 and older are all consumed: the rank left g-1 having taken one per
// round, and exactly one is sent to it per round. A token of g+2 or later
// cannot exist yet: its sender would have finished g+1, which no rank does
// before every rank, this one included, has entered g+1. So a word is
// empty by the time the next generation of its parity reuses it. round and
// dist are the position of the barrier in flight; dist is zero between
// barriers.
type barrierState struct {
	gen   int64
	seen  [2]uint64
	round int64
	dist  int
}

// arrive records an incoming token for (generation, round).
func (b *barrierState) arrive(gen, round int64) { b.seen[gen&1] |= 1 << round }

// take consumes a token if present.
func (b *barrierState) take(gen, round int64) bool {
	word, bit := &b.seen[gen&1], uint64(1)<<round
	ok := *word&bit != 0
	*word &^= bit
	return ok
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
