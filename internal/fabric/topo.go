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
// one nil check (NIC.closed) and nothing else, exactly like faults.
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
	ts.eng = topo.NewEngineIn(nw.K, g, ts.egress, nw.Counters.Row(n))
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

// topoIngress hands a descriptor to the topology engine at its wire end; on a
// sharded network it runs on the fabric stage (the engine's home). Local
// completion (OnTxDone) fired in wireEnd just before; the descriptor rides
// the fabric as the packet's in-flight identity and is retired on egress.
func topoIngress(x any) {
	d := x.(*desc)
	cfg := &d.n.nw.Cfg
	d.n.nw.topo.eng.Send(d, cfg.NodeOf(d.pkt.Src), cfg.NodeOf(d.pkt.Dst), d.pkt.Size)
}

// egress runs on the engine's kernel when a packet starts its final-link
// flight, delay (>= one link latency, the shard group's lookahead bound)
// before arrival. It is the topology-path counterpart of the crossbar
// transmit's delivery and credit return: the packet detaches and crosses to
// its destination rank, the descriptor crosses back to its source NIC. The
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
		// The hardware ACK lands back at the source AckLatency after the
		// arrival (at once without flow control): the descriptor retires.
		ack := nw.Cfg.AckLatency
		if v.n.creditInit == 0 {
			ack = 0
		}
		k.AtCross(k.Now()+delay+ack, descCreditReturn, v, -1, v.n.rank)
	case *Packet:
		k.AtCross(k.Now()+delay, arrive, v, -1, v.Dst) // a go-back-N copy
	default:
		panic("fabric: unknown payload type left the topology")
	}
}
