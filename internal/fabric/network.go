package fabric

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Network is the interconnect of one simulated cluster: N ranks, one NIC
// each, plus the intranode FIFO mesh. All methods must be called from
// kernel or proc context of the owning simulation — on a sharded kernel
// (NewNetworkShards) that means the shard context owning the rank the call
// concerns, which the conservative round structure guarantees for every
// path below.
type Network struct {
	// K is the fabric-stage kernel: the only kernel of a serial simulation,
	// or the dedicated fabric shard (home of the topology engine) of a
	// sharded one. Rank-side events must go through the per-rank kernels
	// held by the NICs instead.
	K   *sim.Kernel
	Cfg Config

	nics     []NIC
	handlers []func(*Packet)

	// sharded marks a network whose ranks are spread across a sim.Shards
	// group: pools become per-rank.
	sharded bool

	// pktFree is the packet free-list backing AllocPacket. It is owned by
	// the simulation's single-threaded event loop, so no locking is needed
	// — and being per-Network, concurrent simulations in the parallel
	// harness never share it. On a sharded network the pool splits per rank
	// (pktFreeBy): allocation and release each go to the pool of the rank in
	// whose context they run, so a pool is only touched by its own shard.
	pktFree   []*Packet
	pktFreeBy [][]*Packet

	// faults, when non-nil, routes every internode packet through the
	// deterministic adversary (schedule.go) and — if its profile has message
	// faults — the go-back-N layer over it (reliable.go). nil — the default
	// — keeps the lossless zero-allocation pipeline untouched but for one
	// pointer check.
	faults *faultState

	// topo, when non-nil, routes every internode packet hop by hop through
	// the modeled interconnect (topo.go). nil — the default crossbar —
	// costs the lossless pipeline one pointer check, like faults.
	topo *topoState

	// Counters is the world's one metrics set, every layer's counters.
	Counters metrics.Set

	// onUnreachable is invoked (on rank local's kernel) when peer's death
	// reaches local's failure detector. internal/core installs its
	// error-propagation hook here.
	onUnreachable func(local, peer int)
}

// NewNetwork builds the interconnect for n ranks on a single serial kernel.
// The configuration is validated here — non-positive latency/bandwidth terms
// or negative credit/capacity counts would silently corrupt every schedule
// downstream, so construction fails loudly with fabric context instead.
func NewNetwork(k *sim.Kernel, n int, cfg Config) *Network {
	return newNetwork(func(int) *sim.Kernel { return k }, k, n, cfg, false)
}

// NewNetworkShards builds the interconnect for n ranks spread across a shard
// group: each NIC lives on its rank's kernel, and the topology engine (when
// configured) lives on the dedicated fabric stage. The assignment must keep
// ranks of one node on one shard — the shared-memory path and the FIFO mesh
// are direct same-shard interactions.
func NewNetworkShards(sh *sim.Shards, n int, cfg Config) *Network {
	return newNetwork(sh.KernelFor, sh.FabricKernel(), n, cfg, true)
}

func newNetwork(kernelFor func(int) *sim.Kernel, fabK *sim.Kernel, n int, cfg Config, sharded bool) *Network {
	if err := cfg.Validate(n); err != nil {
		panic("fabric: invalid config: " + err.Error())
	}
	nw := &Network{
		K:        fabK,
		Cfg:      cfg,
		nics:     make([]NIC, n),
		handlers: make([]func(*Packet), n),
		sharded:  sharded,
		Counters: metrics.NewSet(n, "core"), // until EnableFaults, ranks count only RMA
	}
	// Every NIC, every rail and every intranode FIFO slot of the world is
	// cut from one slice each.
	rl, ppn := cfg.Rails(), cfg.ProcsPerNode
	if ppn <= 1 {
		ppn = 0 // no intranode peers
	}
	rails, fifos := make([]nicRail, n*rl), make([]*Fifo, n*ppn)
	for r := range nw.nics {
		nw.nics[r].init(nw, r, n, kernelFor(r), rails[r*rl:(r+1)*rl:(r+1)*rl], fifos[r*ppn:(r+1)*ppn])
	}
	if sharded {
		nw.pktFreeBy = make([][]*Packet, n)
	}
	if cfg.Topo.Kind != topo.Crossbar {
		nw.topo = newTopoState(nw, n)
	}
	return nw
}

// Lookahead returns the minimum virtual latency of any cross-shard edge the
// simulation can schedule: the crossbar's wire latency Alpha, or — with a
// modeled topology — the smaller of the minimum link latency and Alpha (the
// upper layers' internode completion-ACK edge runs target->origin at Alpha
// regardless of topology). A topology with no links (every rank on one
// node) has no edge of its own to bound, so Alpha stands. This is the bound
// a shard group needs for its safe horizon (sim.Shards.SetLookahead).
func (nw *Network) Lookahead() sim.Time {
	if nw.topo != nil {
		if l := nw.topo.eng.MinLinkLat(); l > 0 && l < nw.Cfg.Alpha {
			return l
		}
	}
	return nw.Cfg.Alpha
}

// AllocPacket returns a zeroed packet from the network's free-list. Pooled
// packets are recycled automatically once their delivery handler returns:
// senders whose handlers do not retain the packet (the RMA protocol) should
// allocate here instead of building literals, which keeps the per-message
// fast path allocation-free. Handlers that keep packets past delivery (the
// two-sided inbox) must keep using literals.
func (nw *Network) AllocPacket() *Packet {
	if nw.sharded {
		panic("fabric: AllocPacket on a sharded network; use AllocPacketAt(rank)")
	}
	if p := take(&nw.pktFree); p != nil {
		return p
	}
	return &Packet{nw: nw, pooled: true}
}

// AllocPacketAt is AllocPacket for callers that may run on a sharded
// network: rank names the rank in whose context the caller executes, whose
// per-rank pool (touched only by its own shard) backs the allocation. On a
// serial network it is identical to AllocPacket.
func (nw *Network) AllocPacketAt(rank int) *Packet {
	if !nw.sharded {
		return nw.AllocPacket()
	}
	if p := take(&nw.pktFreeBy[rank]); p != nil {
		return p
	}
	return &Packet{nw: nw, pooled: true}
}

// release retires a packet the fabric is done with, in rank's context (the
// destination at delivery, the source for a drop at source or an
// acknowledged retained packet). A pooled packet is zeroed and returned to a
// free-list — the shared one when serial, rank's own when sharded; a literal
// is left to the collector.
func (nw *Network) release(rank int, p *Packet) {
	if !p.pooled {
		return
	}
	*p = Packet{nw: nw, pooled: true}
	if nw.sharded {
		nw.pktFreeBy[rank] = append(nw.pktFreeBy[rank], p)
		return
	}
	nw.pktFree = append(nw.pktFree, p)
}

// N returns the number of ranks on the network.
func (nw *Network) N() int { return len(nw.nics) }

// SetHandler installs the delivery handler for rank r. The handler runs in
// kernel (event) context — it models NIC/HCA processing and must not block.
func (nw *Network) SetHandler(r int, h func(*Packet)) { nw.handlers[r] = h }

// SetUnreachableHandler installs the callback fired when a peer's death
// reaches a rank's failure detector.
func (nw *Network) SetUnreachableHandler(fn func(local, peer int)) { nw.onUnreachable = fn }

// PeerUnreachable reports whether peer's death has reached rank local's
// failure detector. Must run in rank local's context on a sharded network
// (it reads local's clock).
func (nw *Network) PeerUnreachable(local, peer int) bool {
	fs := nw.faults
	return fs != nil && fs.detected(peer, nw.nics[local].k.Now())
}

// Send injects packet p at its source NIC. Internode packets traverse the
// injection pipeline under flow control; same-node packets take the
// shared-memory path (no pipeline, no credits).
func (nw *Network) Send(p *Packet) {
	if err := p.Validate(len(nw.nics)); err != nil {
		panic("fabric: send: " + err.Error())
	}
	if p.nw == nil {
		p.nw = nw // literal packet: adopt it so delivery events can route it
	}
	if nw.Cfg.SameNode(p.Src, p.Dst) {
		d := nw.Cfg.AlphaIntra + nw.Cfg.IntraCopyTime(p.Size)
		// Same-node ranks live on the same shard, so this stays a local
		// (band-0) event on the source rank's kernel.
		nw.nics[p.Src].k.AfterCall(d, deliverLocal, p)
		return
	}
	nw.nics[p.Src].enqueue(p)
}

// deliverLocal completes a same-node (shared-memory path) transfer: local
// completion and delivery coincide. Shared and capture-free, so intranode
// sends schedule no closures.
func deliverLocal(x any) {
	p := x.(*Packet)
	if p.OnTxDone != nil {
		p.OnTxDone(p)
	}
	p.nw.deliver(p)
}

// deliver hands p to the destination handler. A pooled packet is recycled
// as soon as the handler returns.
func (nw *Network) deliver(p *Packet) {
	// Receive-side validation: a packet whose framing was mangled anywhere
	// between injection and delivery fails here with fabric context instead
	// of panicking deep inside the RMA protocol layer.
	if err := p.Validate(len(nw.nics)); err != nil {
		panic("fabric: deliver: " + err.Error())
	}
	h := nw.handlers[p.Dst]
	if h == nil {
		panic(fmt.Sprintf("fabric: no delivery handler for rank %d (packet kind %d from %d)", p.Dst, p.Kind, p.Src))
	}
	h(p)
	nw.release(p.Dst, p)
}

// Fifo returns the intranode 64-bit notification FIFO carrying packets from
// src to dst. Both ranks must share a node. A FIFO is created at its first
// use, in dst's slot for src: the ranks of a node share a shard, so only
// that shard ever touches the slot. The two directions of a pair are
// independent rings (the paper's "two-way shared-memory wait-free FIFO").
func (nw *Network) Fifo(src, dst int) *Fifo {
	if src == dst || !nw.Cfg.SameNode(src, dst) {
		panic(fmt.Sprintf("fabric: intranode FIFO %d->%d needs two ranks of one node", src, dst))
	}
	f := &nw.nics[dst].fifos[src%nw.Cfg.ProcsPerNode]
	if *f == nil {
		*f = NewFifo(nw.Cfg.FifoCapacity)
	}
	return *f
}
