package fabric

import (
	"repro/internal/peertab"
	"repro/internal/sim"
)

// desc is one queued send descriptor. Descriptors are recycled through a
// per-NIC free-list and carry the back-pointers the pipeline's shared,
// capture-free callbacks need, so a transmit schedules its wire/delivery/
// credit events without allocating.
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
// packet is delivered (and its OnTxDone fired) when the last chunk's wire
// occupancy ends. Groups are recycled through a per-NIC free-list.
type stripeGroup struct {
	remaining int
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
// CPU involvement from the owning rank. This is what lets a rank that is
// busy computing still drain its posted RMA and done packets — the physical
// basis of the paper's nonblocking epoch-closing semantics.
type NIC struct {
	nw   *Network
	rank int
	// k is the kernel the NIC runs on: the owning rank's shard kernel, or
	// the network's single kernel when serial. Every NIC-local event (wire
	// occupancy, credit return) schedules here; only packet delivery and
	// topology ingress cross shards.
	k *sim.Kernel

	// rails holds the per-rail pipeline state. Single-element on the
	// classic NIC; control rail at index 0 plus Channels data rails above.
	rails []nicRail

	descFree   []*desc
	stripeFree []*stripeGroup
	creditInit int
}

// nicRail is one injection pipeline: its own queue, wire occupancy state and
// per-peer flow-control window (per-QP credits are per rail, so a stalled
// data rail never withholds the control rail's credits).
type nicRail struct {
	queue   []*desc
	busy    bool
	peers   peertab.Table[nicPeer]
	skipGen uint64
}

func newNIC(nw *Network, rank, n int, k *sim.Kernel) *NIC {
	rails := make([]nicRail, nw.Cfg.Rails())
	for i := range rails {
		rails[i].peers = peertab.New[nicPeer](n)
	}
	return &NIC{
		nw:         nw,
		rank:       rank,
		k:          k,
		rails:      rails,
		creditInit: nw.Cfg.CreditsPerPeer,
	}
}

// nicPeer is one destination's flow-control state; its zero value (no
// outstanding credits, never skip-stamped) is a fresh entry.
type nicPeer struct {
	credits int
	skip    uint64
}

// allocDesc takes a descriptor from the free-list (or allocates one).
func (n *NIC) allocDesc() *desc {
	if l := len(n.descFree); l > 0 {
		d := n.descFree[l-1]
		n.descFree[l-1] = nil
		n.descFree = n.descFree[:l-1]
		return d
	}
	return &desc{n: n}
}

// freeDesc returns a spent descriptor to the free-list.
func (n *NIC) freeDesc(d *desc) {
	d.pkt = nil
	d.stripe = nil
	d.rail = 0
	d.wire = 0
	d.regCost = 0
	n.descFree = append(n.descFree, d)
}

func (n *NIC) allocStripe() *stripeGroup {
	if l := len(n.stripeFree); l > 0 {
		g := n.stripeFree[l-1]
		n.stripeFree[l-1] = nil
		n.stripeFree = n.stripeFree[:l-1]
		return g
	}
	return &stripeGroup{}
}

func (n *NIC) freeStripe(g *stripeGroup) {
	g.remaining = 0
	n.stripeFree = append(n.stripeFree, g)
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
	if len(n.rails) > 1 && p.Size >= stripeMin && stripeable(p.Kind) &&
		n.nw.faults == nil && n.nw.topo == nil {
		n.enqueueStriped(p)
		return
	}
	rail := n.railFor(p)
	p.Rail = uint8(rail)
	d := n.allocDesc()
	d.pkt = p
	d.dst = p.Dst
	d.rail = rail
	d.wire = p.Size
	if rc := n.nw.regs[n.rank]; rc != nil && p.Size > 0 {
		if !rc.Touch(regionKeyFor(p)) {
			d.regCost = n.nw.Cfg.RegMissCost
		}
	}
	n.push(d)
	n.tryStart(rail)
}

// enqueueStriped splits one bulk transfer into Channels chunks, one per data
// rail, in deterministic rail order. The chunks share the packet; the last
// chunk to leave its wire fires local completion and schedules the single
// delivery (the receive side never sees partial chunks — reassembly is the
// receiving HCA's job and costs nothing extra in this model).
func (n *NIC) enqueueStriped(p *Packet) {
	dataRails := len(n.rails) - 1
	g := n.allocStripe()
	g.remaining = dataRails
	base := p.Size / int64(dataRails)
	rem := p.Size % int64(dataRails)
	regMiss := false
	if rc := n.nw.regs[n.rank]; rc != nil {
		regMiss = !rc.Touch(regionKeyFor(p))
	}
	for i := 0; i < dataRails; i++ {
		d := n.allocDesc()
		d.pkt = p
		d.dst = p.Dst
		d.rail = 1 + i
		d.wire = base
		if int64(i) < rem {
			d.wire++
		}
		if i == 0 && regMiss {
			d.regCost = n.nw.Cfg.RegMissCost
		}
		d.stripe = g
		n.push(d)
	}
	for i := 0; i < dataRails; i++ {
		n.tryStart(1 + i)
	}
}

// push appends a descriptor to its rail's queue.
func (n *NIC) push(d *desc) {
	r := &n.rails[d.rail]
	r.queue = append(r.queue, d)
}

// regionKeyFor derives a registration-cache key from a packet. Payload
// buffers are keyed by identity of the window/op region recorded in Arg[3]
// by upper layers; 0 means "untracked region" and always hits.
func regionKeyFor(p *Packet) uint64 {
	return uint64(p.Arg[3])
}

// creditsToward reports the outstanding unacknowledged packets toward dst
// across all rails without materializing sparse state — diagnostics and
// tests only.
func (n *NIC) creditsToward(dst int) int {
	total := 0
	for i := range n.rails {
		total += n.rails[i].peers.Peek(dst).credits
	}
	return total
}

// tryStart starts transmitting the oldest descriptor on the rail whose peer
// has credits. It preserves per-(peer, rail) FIFO order: once a descriptor
// for peer P is skipped for lack of credit, every later descriptor for P on
// the same rail is skipped too.
func (n *NIC) tryStart(rail int) {
	r := &n.rails[rail]
	if r.busy || len(r.queue) == 0 {
		return
	}
	r.skipGen++
	gen := r.skipGen
	for i, d := range r.queue {
		pc := r.peers.Get(d.dst)
		if pc.skip == gen {
			continue
		}
		if n.creditInit > 0 && pc.credits >= n.creditInit {
			pc.skip = gen
			continue
		}
		copy(r.queue[i:], r.queue[i+1:])
		r.queue[len(r.queue)-1] = nil
		r.queue = r.queue[:len(r.queue)-1]
		n.transmit(d)
		return
	}
}

// transmit occupies the rail's wire for the descriptor's duration, then
// schedules delivery and credit recovery (descTxDone).
func (n *NIC) transmit(d *desc) {
	r := &n.rails[d.rail]
	r.busy = true
	if n.creditInit > 0 {
		r.peers.Get(d.dst).credits++
	}
	wire := n.nw.Cfg.WireTime(d.wire) + d.regCost
	n.k.AfterCall(wire, descTxDone, d)
}

// descTxDone runs when the descriptor's last byte leaves its injection
// rail: it frees the wire, signals local completion, and schedules
// propagation plus (with flow control on) the hardware ACK that returns the
// credit. All continuations are shared functions taking the descriptor or
// packet, so the whole per-packet pipeline costs zero allocations.
//
// Ownership split for the sharded kernel: the packet is detached here and
// crosses to the destination rank alone (pktDeliver), while the descriptor —
// per-NIC state — never leaves the source shard; its credit return is a
// local event. With AckLatency 0 the credit therefore returns before the
// same-instant delivery fires (local band-0 events precede cross band-1
// events) — the opposite of the old serial interleave, but deterministic,
// identical in both modes, and invisible at any nonzero AckLatency.
func descTxDone(x any) {
	d := x.(*desc)
	n := d.n
	cfg := n.nw.Cfg
	n.rails[d.rail].busy = false
	if g := d.stripe; g != nil {
		// Striped chunk (pristine multi-rail crossbar only): the packet
		// completes and propagates when its last chunk leaves a wire.
		g.remaining--
		pkt := d.pkt
		rail := d.rail
		if g.remaining == 0 {
			n.freeStripe(g)
			if pkt.OnTxDone != nil {
				pkt.OnTxDone(pkt)
			}
			n.k.AtCross(n.k.Now()+cfg.Alpha, pktDeliver, pkt, n.rank, pkt.Dst)
		}
		d.pkt = nil
		d.stripe = nil
		n.returnCredit(d)
		n.tryStart(rail)
		return
	}
	if d.pkt.OnTxDone != nil {
		d.pkt.OnTxDone(d.pkt)
	}
	k := n.k
	if fs := n.nw.faults; fs != nil {
		// Faulty fabric: the adversary (and the go-back-N layer over it,
		// when engaged) owns drop/hold/jitter decisions, delivery, credit
		// return and the descriptor from here on. Shard-safe — every
		// decision reads immutable profile tables or source-rank state.
		fs.send(d)
		return
	}
	if n.nw.topo != nil {
		// Modeled topology: the packet crosses the interconnect hop by hop.
		// The handoff to the engine is same-instant — no lookahead covers it
		// — so it crosses as a band-1 event consumed by the fabric stage of
		// the very round that produced it; delivery, credit return and the
		// descriptor come back from egress (topoState.egress).
		k.AtCross(k.Now(), topoIngress, d, n.rank, -1)
		n.tryStart(d.rail)
		return
	}
	pkt := d.pkt
	d.pkt = nil
	rail := d.rail
	n.returnCredit(d)
	k.AtCross(k.Now()+cfg.Alpha, pktDeliver, pkt, n.rank, pkt.Dst)
	n.tryStart(rail)
}

// returnCredit schedules the hardware ACK of a descriptor whose packet just
// left for the crossbar — a local event, Alpha+AckLatency out — or retires
// the descriptor at once when flow control is off.
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

// descCreditReturn models the hardware ACK: the peer's credit on the
// descriptor's rail comes back, possibly unblocking a stalled descriptor,
// and the descriptor is retired.
func descCreditReturn(x any) {
	d := x.(*desc)
	n := d.n
	rail := d.rail
	n.rails[rail].peers.Get(d.dst).credits--
	n.freeDesc(d)
	n.tryStart(rail)
}
