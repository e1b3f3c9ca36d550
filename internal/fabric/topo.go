package fabric

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// Topology integration. When Config.Topo selects a real topology (anything
// but the crossbar), every internode packet — after its NIC injection
// pipeline, and after the adversary when faults are enabled — crosses
// the modeled interconnect hop by hop under per-link bandwidth arbitration
// and credit flow control, instead of the crossbar's flat Alpha hop. The
// default crossbar builds no topoState at all: the lossless fast path pays
// one nil check in descTxDone and nothing else, exactly like faults.
//
// The NIC pipeline keeps modeling the host adapter (serialization, per-peer
// credits, registration); the topology models the switch fabric behind it.
// Hardware ACKs — the lossless credit return and the reliability sublayer's
// cumulative ACKs — stay out of band, as in the crossbar model.

// topoState glues a topo.Engine under the network's packet path.
type topoState struct {
	nw  *Network
	eng *topo.Engine
}

// topoSpec returns the configured topology with the zero link-model fields
// resolved from the fabric calibration — what Validate checks and
// newTopoState builds.
func (c Config) topoSpec() topo.Spec {
	spec := c.Topo
	if spec.LinkBytesPerUs == 0 {
		spec.LinkBytesPerUs = c.BytesPerUs
	}
	if spec.HopLatency == 0 {
		// Half the crossbar's flat hop, so the shortest real route (two
		// hops: host->switch->host) reproduces the crossbar's base latency;
		// at least 1 ns, which a 1 ns Alpha would otherwise halve to zero.
		spec.HopLatency = max(c.Alpha/2, 1)
	}
	return spec
}

// newTopoState builds the graph and engine for the configured topology over
// the network's node count.
func newTopoState(nw *Network, n int) *topoState {
	cfg := &nw.Cfg
	nodes := cfg.NodeOf(n-1) + 1
	g, err := topo.Build(cfg.topoSpec(), nodes)
	if err != nil {
		panic("fabric: " + err.Error())
	}
	ts := &topoState{nw: nw}
	ts.eng = topo.NewEngine(nw.K, g, ts.egress)
	nw.Cfg.Topo = g.Spec // record the resolved shape for diagnostics
	return ts
}

// topoSendPacket injects a go-back-N copy into the topology at its
// departure time (the adversary already decided its fate in the source
// rank's context). Like topoIngress it runs on the engine's kernel.
func topoSendPacket(x any) {
	p := x.(*Packet)
	cfg := &p.nw.Cfg
	p.nw.topo.eng.Send(p, cfg.NodeOf(p.Src), cfg.NodeOf(p.Dst), p.Size)
}

// topoIngress hands a descriptor to the topology engine; on a sharded
// network it runs on the fabric stage (the engine's home). Local completion
// (OnTxDone) already fired in descTxDone; the descriptor rides the fabric as
// the packet's in-flight identity and is retired on egress.
func topoIngress(x any) {
	d := x.(*desc)
	cfg := &d.n.nw.Cfg
	d.n.nw.topo.eng.Send(d, cfg.NodeOf(d.pkt.Src), cfg.NodeOf(d.pkt.Dst), d.pkt.Size)
}

// egress runs on the engine's kernel when a packet starts its final-link
// flight, delay (>= one link latency, the shard group's lookahead bound)
// before arrival. It is the topology-path counterpart of descTxDone's
// delivery/credit scheduling: the packet detaches and crosses to its
// destination rank, the descriptor crosses back to its source NIC. The
// fabric engine owns no rank, so its cross events carry owner -1.
func (ts *topoState) egress(delay sim.Time, payload any, _ int) {
	nw := ts.nw
	k := nw.K
	arrive := pktDeliver
	if nw.faults != nil {
		arrive = faultArrive // a death is checked at egress too
	}
	switch v := payload.(type) {
	case *desc:
		pkt := v.pkt
		v.pkt = nil
		k.AtCross(k.Now()+delay, arrive, pkt, -1, pkt.Dst)
		if v.n.creditInit > 0 {
			// Arrival + AckLatency later the hardware ACK lands back at the
			// source: credit return and descriptor retirement, as before.
			k.AtCross(k.Now()+delay+nw.Cfg.AckLatency, descCreditReturn, v, -1, v.n.rank)
		} else {
			k.AtCross(k.Now()+delay, descRetire, v, -1, v.n.rank)
		}
	case *Packet:
		k.AtCross(k.Now()+delay, arrive, v, -1, v.Dst) // a go-back-N copy
	default:
		panic("fabric: unknown payload type left the topology")
	}
}

// descRetire returns a spent no-flow-control descriptor to its source NIC's
// free-list (sharded: on the source rank's shard).
func descRetire(x any) {
	d := x.(*desc)
	d.n.freeDesc(d)
}

// --- Observability ----------------------------------------------------- //

// TopoSummary returns the fabric-wide congestion aggregate (zero when the
// crossbar is in use).
func (nw *Network) TopoSummary() topo.Summary {
	if nw.topo == nil {
		return topo.Summary{}
	}
	return nw.topo.eng.Summary()
}

// Diag renders rank r's fabric state for watchdog and deadlock reports: the
// adversary's view (faultDiag) and, with a modeled topology, the congestion
// around r's node (queue depths, credit stalls, hottest links), so a fault-
// or congestion-induced stall reads differently from a protocol deadlock.
// Returns "" when faults are off and the crossbar is in use or nothing ever
// queued.
func (nw *Network) Diag(r int) string {
	fd := nw.faultDiag(r)
	if nw.topo == nil {
		return fd
	}
	td := nw.topo.eng.HostDiag(nw.Cfg.NodeOf(r))
	switch {
	case fd == "":
		return td
	case td == "":
		return fd
	}
	return fd + "\n" + td
}
