package fabric

import (
	"slices"

	"repro/internal/peertab"
	"repro/internal/sim"
)

// desc is one queued send descriptor, recycled through a per-NIC free-list,
// with the back-pointers the pipeline's capture-free callbacks need. On the
// crossbar it is spent when its transmission starts; elsewhere it rides on
// as the packet's in-flight identity until its credit comes back.
type desc struct {
	n       *NIC
	pkt     *Packet
	dst     int   // cached: pkt may be recycled before the credit returns
	rail    int   // which injection rail carries this descriptor
	wire    int64 // bytes charged to this rail (== pkt.Size unless striped)
	stripe  *stripeGroup
	regCost sim.Time // registration-cache miss penalty, charged as DMA setup
}

// stripeGroup tracks one large transfer striped across the data rails: the
// packet completes at the latest chunk end key, known when its last chunk
// starts. Groups are recycled through a per-NIC free-list.
type stripeGroup struct {
	remaining int // chunks not yet started
	end       sim.Time
	seq       uint64
}

// NIC models one host channel adapter with Config.Rails() injection rails.
// The classic configuration (Channels == 1) is a single serial pipeline:
// descriptors from all peers share the outgoing wire, each occupying it for
// WireTime(size). With Channels > 1 the NIC mirrors a multi-rail HCA: rail 0
// is a dedicated control rail for small protocol packets (signals, locks,
// dones) so epoch-close latency is immune to data-plane queueing, and rails
// 1..Channels each carry data at full bandwidth, with large puts striped
// across all of them in deterministic chunks.
//
// Delivery order is FIFO per (peer, rail) — the single-rail case is exactly
// the per-peer FIFO the RMA protocol relies on for done-after-data ordering;
// DESIGN.md ("Rails") documents the multi-rail ordering contract. Two-sided
// and accumulate traffic keeps a fixed per-peer rail affinity so MPI's
// non-overtaking and accumulate-ordering rules survive striping. A peer
// whose flow-control credits are exhausted is skipped without blocking
// traffic to other peers (per-QP flow control); credits are charged per
// rail, like real per-QP windows.
//
// The NIC is autonomous: once a descriptor is posted, transmission, delivery
// and credit recovery all proceed in kernel-event context with no further
// CPU involvement from the owning rank — the physical basis of the paper's
// nonblocking epoch-closing semantics.
type NIC struct {
	nw   *Network
	rank int
	// k is the owning rank's kernel: every NIC-local event schedules here;
	// only packet delivery and topology ingress cross shards.
	k          *sim.Kernel
	rails      []nicRail // control rail 0, then the Channels data rails
	descFree   []*desc
	stripeFree []*stripeGroup
	creditInit int
	regs       regCache
	fifos      []*Fifo // the intranode FIFOs into this rank, by source's place on the node
}

// nicRail is one injection pipeline: its own queue, wire and per-peer
// flow-control window (per-QP credits are per rail). The wire is busy up to
// the kernel key (busyUntil, busySeq), reserved at the start where an event
// marking the end would sit; a crossbar credit is out up to its return key.
type nicRail struct {
	n         *NIC
	queue     []*desc
	busyUntil sim.Time
	busySeq   uint64
	peers     peertab.Table[nicPeer]
	skipGen   uint64
	returns   []creditReturn // crossbar credits out, in return order
	idx       int32
	ended     bool // off the crossbar: an event at the wire's end key is scheduled
}

// creditReturn is one charged crossbar credit: the key at which its ACK
// lands back at the source, and whether a railWake waits there.
type creditReturn struct {
	peer  int
	woken bool
	at    sim.Time
	seq   uint64
}

// before orders two kernel keys (time, seq).
func before(t1 sim.Time, s1 uint64, t2 sim.Time, s2 uint64) bool {
	return t1 < t2 || t1 == t2 && s1 < s2
}

// init builds rank's NIC in place on its rails and FIFO slots, slices of
// the world's.
func (nic *NIC) init(nw *Network, rank, n int, k *sim.Kernel, rails []nicRail, fifos []*Fifo) {
	*nic = NIC{nw: nw, rank: rank, k: k, rails: rails, fifos: fifos, creditInit: nw.Cfg.CreditsPerPeer, regs: regCache{cap: nw.Cfg.RegCacheEntries}}
	for i := range rails {
		rails[i] = nicRail{n: nic, idx: int32(i), peers: peertab.New[nicPeer](n)}
	}
}

// nicPeer is one destination's flow-control state; its zero value (no
// outstanding credits, never skip-stamped) is a fresh entry.
type nicPeer struct {
	credits int
	skip    uint64
}

// take pops a recycled object off a free-list, or returns nil.
func take[T any](free *[]*T) *T {
	l := len(*free)
	if l == 0 {
		return nil
	}
	x := (*free)[l-1]
	(*free)[l-1] = nil
	*free = (*free)[:l-1]
	return x
}

// newDesc takes a descriptor for a packet, or a chunk of one, on a rail.
func (n *NIC) newDesc(p *Packet, rail int, wire int64) *desc {
	d := take(&n.descFree)
	if d == nil {
		d = &desc{n: n}
	}
	d.pkt, d.dst, d.rail, d.wire = p, p.Dst, rail, wire
	return d
}

// freeDesc returns a spent descriptor to the free-list.
func (n *NIC) freeDesc(d *desc) {
	*d = desc{n: n}
	n.descFree = append(n.descFree, d)
}

// dataRail reports whether a packet kind belongs to the data plane. Data
// kinds toward one peer share a fixed affinity rail: eager/rendezvous
// two-sided traffic must not overtake itself (MPI non-overtaking) and
// accumulate payloads must stay ordered (MPI accumulate ordering), so none
// of them may hop rails packet by packet.
func dataRail(k Kind) bool {
	switch k {
	case KindEager, KindRTS, KindRData, KindPutData, KindAccData, KindGetResp, KindGetAccResp:
		return true
	}
	return false
}

// stripeable reports whether a packet kind may be chunk-striped across the
// data rails: only bulk one-sided payloads with no inter-packet ordering
// contract of their own.
func stripeable(k Kind) bool { return k == KindPutData || k == KindGetResp }

// stripeMin is the size threshold below which striping is not worth the
// per-rail alpha; small transfers ride their affinity rail whole.
const stripeMin int64 = 64 << 10

// railFor classifies a packet onto an injection rail. Single-rail NICs use
// rail 0 for everything; multi-rail NICs put data-plane kinds on a per-peer
// affinity data rail and everything else (signals, grants, dones, locks,
// requests, barriers) on the dedicated control rail 0.
func (n *NIC) railFor(p *Packet) int {
	if len(n.rails) == 1 || !dataRail(p.Kind) {
		return 0
	}
	return 1 + p.Dst%(len(n.rails)-1)
}

// enqueue posts a packet to its rail's injection queue and kicks that
// pipeline. Large stripeable transfers on a pristine multi-rail crossbar
// split into per-rail chunks instead (the adversary and the topology model
// own delivery on their paths and know nothing of chunk reassembly, so
// striping stays a lossless-crossbar feature).
func (n *NIC) enqueue(p *Packet) {
	if len(n.rails) > 1 && p.Size >= stripeMin && stripeable(p.Kind) && n.closed() {
		n.enqueueStriped(p)
		return
	}
	rail := n.railFor(p)
	p.Rail = uint8(rail)
	d := n.newDesc(p, rail, p.Size)
	if p.Size > 0 && !n.regs.touch(regionKeyFor(p)) {
		d.regCost = n.nw.Cfg.RegMissCost
	}
	n.rails[rail].queue = append(n.rails[rail].queue, d)
	n.tryStart(rail)
}

// enqueueStriped splits one bulk transfer into Channels chunks, one per data
// rail, in deterministic rail order. The chunks share the packet, which
// completes once, at the latest chunk end (the receive side never sees
// partial chunks — reassembly is the receiving HCA's job and costs nothing
// extra in this model).
func (n *NIC) enqueueStriped(p *Packet) {
	dataRails := len(n.rails) - 1
	g := take(&n.stripeFree)
	if g == nil {
		g = &stripeGroup{}
	}
	g.remaining = dataRails
	base, rem := p.Size/int64(dataRails), p.Size%int64(dataRails)
	regMiss := !n.regs.touch(regionKeyFor(p))
	for i := 0; i < dataRails; i++ {
		d := n.newDesc(p, 1+i, base)
		if int64(i) < rem {
			d.wire++
		}
		if i == 0 && regMiss {
			d.regCost = n.nw.Cfg.RegMissCost
		}
		d.stripe = g
		n.rails[1+i].queue = append(n.rails[1+i].queue, d)
	}
	for i := 0; i < dataRails; i++ {
		n.tryStart(1 + i)
	}
}

// regionKeyFor derives a registration-cache key from a packet. Payload
// buffers are keyed by identity of the window/op region recorded in Arg[3]
// by upper layers; 0 means "untracked region" and always hits.
func regionKeyFor(p *Packet) uint64 {
	return uint64(p.Arg[3])
}

// closed reports whether a packet's delivery and credit return are closed
// forms of its start: the lossless crossbar, not the adversary or a topology.
func (n *NIC) closed() bool { return n.nw.faults == nil && n.nw.topo == nil }

// tryStart starts the oldest queued descriptor whose peer has a credit; a
// peer skipped for lack of one stays skipped (per-(peer, rail) FIFO). On
// the crossbar every return key is known, so the queue is decided at once
// for the key at which the wire frees, and a rail whose heads are all
// stalled wakes at the earliest return that unstalls one. Elsewhere credits
// come back by event: only a free wire starts, and the wire's end (wireEnd,
// or a railWake at its key) tries again.
func (n *NIC) tryStart(rail int) {
	r := &n.rails[rail]
	closed := n.closed()
	for len(r.queue) > 0 {
		at, seq := n.k.Now(), n.k.Seq()
		if before(at, seq, r.busyUntil, r.busySeq) {
			if !closed {
				if !r.ended {
					r.ended = true
					n.k.AtCallSeq(r.busyUntil, r.busySeq, railWake, r)
				}
				return
			}
			at, seq = r.busyUntil, r.busySeq
		}
		if closed {
			r.reclaim(at, seq)
		}
		r.skipGen++
		var d *desc
		for i, q := range r.queue {
			pc := r.peers.Get(q.dst)
			if pc.skip == r.skipGen {
				continue
			}
			if n.creditInit > 0 && pc.credits >= n.creditInit {
				pc.skip = r.skipGen
				continue
			}
			d, r.queue = q, slices.Delete(r.queue, i, i+1)
			break
		}
		if d == nil {
			if closed {
				r.armCredit()
			}
			return
		}
		n.transmit(d, at)
	}
}

// reclaim returns every crossbar credit due by the key (at, seq); a rail's
// decisions never go back in time.
func (r *nicRail) reclaim(at sim.Time, seq uint64) {
	i := 0
	for ; i < len(r.returns) && !before(at, seq, r.returns[i].at, r.returns[i].seq); i++ {
		r.peers.Get(r.returns[i].peer).credits--
	}
	r.returns = r.returns[:copy(r.returns, r.returns[i:])]
}

// armCredit schedules a railWake at the earliest return toward a peer the
// last decision found stalled, unless one already waits there.
func (r *nicRail) armCredit() {
	for i := range r.returns {
		if c := &r.returns[i]; r.peers.Peek(c.peer).skip == r.skipGen {
			if !c.woken {
				c.woken = true
				r.n.k.AtCallSeq(c.at, c.seq, railWake, r)
			}
			return
		}
	}
}

// railWake is the shared, capture-free wake of a rail whose stalled peer's
// credit is back (crossbar) or whose wire is free (topology).
func railWake(x any) {
	r := x.(*nicRail)
	r.n.tryStart(int(r.idx))
}

// transmit starts d at instant at and schedules its one continuation: on
// the crossbar its delivery Alpha after the wire end (OnTxDone at the end),
// keeping the credit's return key on the rail; elsewhere wireEnd, or on a
// topology with nothing to do at the wire's end, the ingress itself.
func (n *NIC) transmit(d *desc, at sim.Time) {
	r, cfg, k := &n.rails[d.rail], &n.nw.Cfg, n.k
	end := at + cfg.WireTime(d.wire) + d.regCost
	r.busyUntil, r.busySeq = end, k.Reserve()
	if n.creditInit > 0 {
		r.peers.Get(d.dst).credits++
	}
	if !n.closed() {
		// The wire's end is an event when the adversary takes the packet
		// there, when it has a hook, or when the queue waits for the wire;
		// that event hands it on (wireEnd). Otherwise the handoff to the
		// engine is scheduled now.
		if r.ended = n.nw.faults != nil || d.pkt.OnTxDone != nil || len(r.queue) > 0; r.ended {
			k.AtCallSeq(end, r.busySeq, wireEnd, d)
		} else {
			k.AtCross(end, topoIngress, d, n.rank, -1)
		}
		return
	}
	if n.creditInit > 0 {
		r.returns = append(r.returns, creditReturn{peer: d.dst, at: end + cfg.Alpha + cfg.AckLatency, seq: k.Reserve()})
	}
	pkt, seq := d.pkt, r.busySeq
	if g := d.stripe; g != nil {
		g.remaining--
		if before(g.end, g.seq, end, seq) {
			g.end, g.seq = end, seq
		}
		end, seq = g.end, g.seq
		if g.remaining > 0 {
			pkt = nil
		} else {
			*g = stripeGroup{}
			n.stripeFree = append(n.stripeFree, g)
		}
	}
	n.freeDesc(d)
	if pkt != nil {
		if pkt.OnTxDone != nil {
			k.AtCallSeq(end, seq, pktTxDone, pkt)
		}
		k.AtCross(end+cfg.Alpha, pktDeliver, pkt, n.rank, pkt.Dst)
	}
}

// pktTxDone fires a crossbar packet's OnTxDone (local completion).
func pktTxDone(x any) {
	p := x.(*Packet)
	p.OnTxDone(p)
}

// wireEnd runs at a descriptor's wire end off the crossbar: it signals local
// completion and hands the packet on. The adversary (with the go-back-N
// layer over it, when engaged) then owns drop/hold/jitter decisions,
// delivery, credit return and the descriptor, and starts the rail's next
// descriptor itself; a topology gets it as a band-1 event consumed by the
// fabric stage of the same round, and egress (topoState.egress) brings back
// delivery, credit return and the descriptor.
func wireEnd(x any) {
	d := x.(*desc)
	n := d.n
	if d.pkt.OnTxDone != nil {
		d.pkt.OnTxDone(d.pkt)
	}
	if fs := n.nw.faults; fs != nil {
		fs.send(d)
		return
	}
	n.k.AtCross(n.k.Now(), topoIngress, d, n.rank, -1)
	n.tryStart(d.rail)
}

// returnCredit schedules the hardware ACK of a descriptor the adversary
// just sent — a local event, Alpha+AckLatency out — or retires the
// descriptor at once when flow control is off.
func (n *NIC) returnCredit(d *desc) {
	if n.creditInit > 0 {
		n.k.AfterCall(n.nw.Cfg.Alpha+n.nw.Cfg.AckLatency, descCreditReturn, d)
	} else {
		n.freeDesc(d)
	}
}

// pktDeliver propagates a detached packet to its destination; on a sharded
// network it runs on the destination rank's shard.
func pktDeliver(x any) {
	p := x.(*Packet)
	p.nw.deliver(p)
}

// descCreditReturn models the hardware ACK of a packet the adversary or the
// topology carried: the peer's credit on the descriptor's rail comes back,
// possibly unblocking a stalled descriptor, and the descriptor is retired.
func descCreditReturn(x any) {
	d := x.(*desc)
	n, rail := d.n, d.rail
	if n.creditInit > 0 {
		n.rails[rail].peers.Get(d.dst).credits--
	}
	n.freeDesc(d)
	n.tryStart(rail)
}
