package fabric

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Fault injection: one deterministic adversary for the internode fabric.
// Every decision is a pure function of the profile and virtual time — a
// table lookup (deaths, flap windows) or a hash of (Seed, src, dst, the
// link's attempt index) — taken in the source rank's context, and all
// mutable state is per rank, touched only by events on the owning rank's
// kernel. No RNG stream is consumed, so a profile replays bit for bit on
// the serial kernel and at any shard count, on the crossbar and on a
// modeled topology alike.
//
// Two fault families share the mechanism. Endpoint and link failures: a dead
// rank's NIC stops emitting and absorbing packets (dropped at source while
// the source is dead, absorbed on arrival while the destination is — packets
// in flight when death strikes included); a flapped directed link *holds*
// departures until the window lifts; per-packet jitter perturbs departure
// times. Message faults: a copy on the wire may be dropped, duplicated or
// corrupted. A profile with any message fault makes the network build the
// go-back-N layer (reliable.go) over this wire; its sequence numbers then
// restore the exactly-once per-link FIFO the RMA done-after-data rule
// relies on, and jitter may reorder copies. Without message faults no ARQ
// exists and a monotone per-link departure floor keeps held and jittered
// packets in send order instead.
//
// Failure detection is explicit: every surviving rank learns of a death
// exactly DetectDelay after it happens (an event on the rank's own kernel
// that tears down its ARQ streams toward the dead peer and invokes the
// network's unreachable handler), and PeerUnreachable reports the peer dead
// from that instant on. There are no per-link detection races to model —
// which is what keeps fault-induced *RMAError classes, messages and
// timestamps identical across shard counts.

// RankDeath kills one rank's NIC at a fixed virtual time. The rank's
// process keeps executing (a simulated host does not vanish; scenario
// bodies typically return at the death time), but no packet leaves or
// reaches it from At on.
type RankDeath struct {
	Rank int
	At   sim.Time
}

// LinkFlap takes one directed internode link down for [From, From+For):
// departures in the window are held and released when it lifts. A whole-rank
// stall is a window on each link of the rank.
type LinkFlap struct {
	Src, Dst int
	From     sim.Time
	For      sim.Time
}

// FaultProfile is the complete adversary. The zero value is a lossless
// fabric.
type FaultProfile struct {
	// Seed parameterizes every per-copy hash. Profiles differing only in
	// Seed produce different but individually reproducible schedules.
	Seed uint64

	// Drop, Dup and Corrupt are per-copy probabilities on each wire attempt
	// (first transmissions, retransmissions and — Drop only — ACKs alike). A
	// corrupted copy reaches the receiver but fails its checksum there.
	// Any of them non-zero engages the go-back-N layer.
	Drop    float64
	Dup     float64
	Corrupt float64

	// Jitter, when positive, delays each copy's departure by
	// hash(Seed, src, dst, attempt index) mod (Jitter+1).
	Jitter sim.Time

	Deaths []RankDeath
	Flaps  []LinkFlap

	// DetectDelay is the failure-detector latency: survivors are notified
	// (and PeerUnreachable flips) this long after a death. Zero selects
	// 4*(Alpha+AckLatency).
	DetectDelay sim.Time
}

// DefaultFaultProfile returns the lossless profile for seed; callers switch
// on the fault classes they want.
func DefaultFaultProfile(seed uint64) FaultProfile { return FaultProfile{Seed: seed} }

// linkKey identifies a directed internode link (a physical src->dst path:
// flap windows apply to all of its rails at once).
type linkKey struct{ src, dst int }

// neverDies marks a rank with no scheduled death.
const neverDies = sim.Time(1) << 62

// wireOut is one directed link's source-side adversary state: the attempt
// index the per-copy hashes are keyed by, and (without the ARQ) the monotone
// departure floor that keeps held and jittered packets in send order.
type wireOut struct {
	attempts uint64
	floor    sim.Time
}

// faultRank is the mutable per-rank slice of the adversary and of the ARQ
// layer. Every field is read and written only by events running in the
// owning rank's context, so shards never contend.
type faultRank struct {
	out map[int]wireOut   // by destination
	tx  map[arqKey]*relTx // ARQ transmit halves, by (destination, rail)
	rx  map[arqKey]uint64 // ARQ receive halves (next expected Seq), by (source, rail)
}

// faultState is the network-wide adversary: immutable profile tables plus
// the per-rank mutable states.
type faultState struct {
	nw     *Network
	fp     FaultProfile
	detect sim.Time
	// deadFrom[r] is rank r's death time (neverDies if it survives) and
	// flaps each directed link's down windows sorted by From. Both are
	// read-only after EnableFaults.
	deadFrom []sim.Time
	flaps    map[linkKey][]LinkFlap
	rank     []faultRank

	// arq marks a profile that can make a receiver see something other than
	// each packet once: the go-back-N layer is engaged. rto is its initial
	// retransmission timeout; ackFlight the latency of a dedicated ACK — an
	// ACK is a packet on the same wire, so it never flies faster than the
	// shard group's lookahead, whatever AckLatency says.
	arq       bool
	rto       sim.Time
	ackFlight sim.Time
}

// EnableFaults switches the network's internode paths onto the adversary
// described by fp — and, if fp has message faults, onto the go-back-N layer
// over it. Legal on serial and sharded networks, on the crossbar and on a
// modeled topology. Call before any traffic flows and before a layer above
// takes its rows of Counters (core.NewRuntime): the rank rows gain the
// fabric.* columns here.
//
// The adversary sits on the internode pipeline only: same-node traffic
// (ProcsPerNode > 1) takes the shared-memory path and is never faulted.
func (nw *Network) EnableFaults(fp FaultProfile) {
	if nw.faults != nil {
		panic("fabric: EnableFaults called twice")
	}
	if fp.Jitter < 0 {
		panic("fabric: FaultProfile.Jitter must be non-negative")
	}
	n := nw.N()
	nw.Counters.From("fabric") // the adversary and the ARQ count per rank
	rtt := nw.Cfg.Alpha + nw.Cfg.AckLatency
	fs := &faultState{
		nw:        nw,
		fp:        fp,
		detect:    fp.DetectDelay,
		deadFrom:  make([]sim.Time, n),
		flaps:     make(map[linkKey][]LinkFlap),
		rank:      make([]faultRank, n),
		arq:       fp.Drop > 0 || fp.Dup > 0 || fp.Corrupt > 0,
		rto:       4 * rtt,
		ackFlight: max(nw.Cfg.AckLatency, nw.Lookahead()),
	}
	if fs.detect <= 0 {
		fs.detect = 4 * rtt
	}
	for r := range fs.deadFrom {
		fs.deadFrom[r] = neverDies
	}
	for _, d := range fp.Deaths {
		if d.Rank < 0 || d.Rank >= n {
			panic(fmt.Sprintf("fabric: scheduled death of rank %d outside world of %d", d.Rank, n))
		}
		if d.At < 0 {
			panic(fmt.Sprintf("fabric: scheduled death of rank %d at negative time %d", d.Rank, d.At))
		}
		if fs.deadFrom[d.Rank] != neverDies {
			panic(fmt.Sprintf("fabric: rank %d scheduled to die twice", d.Rank))
		}
		fs.deadFrom[d.Rank] = d.At
	}
	for _, f := range fp.Flaps {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n || f.Src == f.Dst {
			panic(fmt.Sprintf("fabric: scheduled flap on invalid link %d->%d (world of %d)", f.Src, f.Dst, n))
		}
		if f.From < 0 || f.For <= 0 {
			panic(fmt.Sprintf("fabric: scheduled flap on link %d->%d with invalid window [%d,+%d)", f.Src, f.Dst, f.From, f.For))
		}
		key := linkKey{f.Src, f.Dst}
		fs.flaps[key] = append(fs.flaps[key], f)
	}
	for _, wins := range fs.flaps {
		sort.Slice(wins, func(i, j int) bool { return wins[i].From < wins[j].From })
	}
	nw.faults = fs
	// The one failure detector: each survivor is told of each death exactly
	// detect after it happens, on its own kernel (so the notification — and
	// everything the core layer aborts in response — stays in the
	// survivor's shard context).
	for _, d := range fp.Deaths {
		dead, at := d.Rank, d.At+fs.detect
		for r := 0; r < n; r++ {
			if local := r; local != dead {
				nw.nics[r].k.At(at, func() { fs.declare(local, dead) })
			}
		}
	}
}

// declare runs on rank local's kernel when peer's death reaches its failure
// detector: local's ARQ streams toward the peer are torn down (their credits
// reconciled, so traffic to other peers keeps flowing) and the upper layer
// is told. The handler is read at fire time: core installs it after network
// construction.
func (fs *faultState) declare(local, peer int) {
	for rail := 0; rail < fs.nw.Cfg.Rails(); rail++ {
		if l := fs.rank[local].tx[arqKey{peer, rail}]; l != nil {
			l.teardown()
		}
	}
	if h := fs.nw.onUnreachable; h != nil {
		h(local, peer)
	}
}

// deadBy reports whether rank r's NIC is dead at time t.
func (fs *faultState) deadBy(r int, t sim.Time) bool { return t >= fs.deadFrom[r] }

// detected reports whether rank peer's death has reached the failure
// detectors by time t.
func (fs *faultState) detected(peer int, t sim.Time) bool {
	return fs.deadFrom[peer] != neverDies && t >= fs.deadFrom[peer]+fs.detect
}

// flapEnd returns the lift time of the flap window covering (src->dst, now),
// or 0 when the link is up. Windows per link are few; linear scan.
func (fs *faultState) flapEnd(src, dst int, now sim.Time) sim.Time {
	for _, w := range fs.flaps[linkKey{src, dst}] {
		if w.From > now {
			break // sorted: no later window can cover now
		}
		if now < w.From+w.For {
			return w.From + w.For
		}
	}
	return 0
}

// schedHash is a splitmix64-style finalizer over (seed, link, attempt
// index): the entire per-copy schedule in one pure function.
func schedHash(seed uint64, src, dst int, seq uint64) uint64 {
	return sim.Mix64(seed + uint64(src)*0x9E3779B97F4A7C15 + uint64(dst)*0xC2B2AE3D27D4EB4F + seq*0x165667B19E3779F9)
}

// Salts decorrelating the message-fault draws of one attempt from its jitter
// draw (which uses the bare Seed) and from each other.
const (
	saltDrop    = 0xD6E8FEB86659FD93
	saltDup     = 0xA0761D6478BD642F
	saltCorrupt = 0xE7037ED1A0B428DB
)

// hit draws one message-fault decision for attempt idx on link src->dst.
func (fs *faultState) hit(rate float64, salt uint64, src, dst int, idx uint64) bool {
	return rate > 0 && float64(schedHash(fs.fp.Seed^salt, src, dst, idx)>>11)/(1<<53) < rate
}

// depart puts one copy on the src->dst wire at now (in src's context) and
// returns when it actually leaves — after any flap window lifts, plus its
// jitter — and the attempt index its message-fault draws are keyed by.
func (fs *faultState) depart(src, dst int, now sim.Time) (at sim.Time, idx uint64) {
	fr := &fs.rank[src]
	at = now
	if end := fs.flapEnd(src, dst, now); end > at {
		fs.nw.Counters.Row(src).Add(cDelayed, 1)
		at = end
	}
	if fr.out == nil {
		fr.out = make(map[int]wireOut, 8)
	}
	w := fr.out[dst]
	idx = w.attempts
	w.attempts++
	if j := fs.fp.Jitter; j > 0 {
		at += sim.Time(schedHash(fs.fp.Seed, src, dst, idx) % uint64(j+1))
	}
	if !fs.arq {
		// Monotone per-link floor: held and jittered packets still leave in
		// send order (same-instant cross events from one owner keep their
		// issue order in both serial and sharded kernels).
		at = max(at, w.floor)
		w.floor = at
	}
	fr.out[dst] = w
	return at, idx
}

// send runs in wireEnd when the adversary owns the internode path. With
// the ARQ engaged the packet is sequenced and retained there; without it,
// credit return follows the lossless timing (the hardware hop-level ACK —
// endpoint failures must not leak the sender's credit pool) and the packet
// itself is dropped, held, jittered or delivered per the profile. Either way
// a surviving copy reaches the destination by AtCross: flat at +Alpha on the
// crossbar, through the topology from its departure time otherwise.
func (fs *faultState) send(d *desc) {
	n, p, rail := d.n, d.pkt, d.rail
	k := n.k
	switch now := k.Now(); {
	case fs.arq:
		fs.sendReliable(d)
	case fs.deadBy(p.Src, now):
		// The source NIC is dead: the packet never leaves the host.
		d.pkt = nil
		n.returnCredit(d)
		fs.nw.Counters.Row(p.Src).Add(cTxDrops, 1)
		fs.nw.release(p.Src, p)
	case fs.nw.topo != nil:
		// The descriptor rides the topology as on the lossless path; credit
		// return and retirement come back from egress.
		at, _ := fs.depart(p.Src, p.Dst, now)
		k.AtCross(at, topoIngress, d, p.Src, -1)
	default:
		d.pkt = nil
		n.returnCredit(d)
		at, _ := fs.depart(p.Src, p.Dst, now)
		k.AtCross(at+fs.nw.Cfg.Alpha, faultArrive, p, p.Src, p.Dst)
	}
	n.tryStart(rail)
}

// faultArrive lands one copy at the destination rank's kernel: a packet
// reaching a NIC that died (mid-flight included) is absorbed, an ARQ copy
// goes through the receive half of its stream, anything else is delivered.
func faultArrive(x any) {
	p := x.(*Packet)
	nw := p.nw
	fs := nw.faults
	switch {
	case fs.deadBy(p.Dst, nw.nics[p.Dst].k.Now()):
		fs.nw.Counters.Row(p.Dst).Add(cRxDrops, 1)
		nw.release(p.Dst, p)
	case p.rel:
		fs.recvReliable(p)
	default:
		nw.deliver(p)
	}
}

// Diag renders rank r's state for watchdog and deadlock reports: the
// adversary's view (faultDiag); with a modeled topology, the congestion
// around r's node (queue depths, credit stalls, hottest links), so a fault-
// or congestion-induced stall reads differently from a protocol deadlock;
// and r's nonzero counters of every layer with the fabric-wide topo ones.
// Returns "" when there is nothing to say.
func (nw *Network) Diag(r int) string {
	lines := []string{nw.faultDiag(r), "", ""}
	if nw.topo != nil {
		lines[1] = nw.topo.eng.HostDiag(nw.Cfg.NodeOf(r))
	}
	if c := nw.Counters.Snapshot(r, nw.Counters.Ranks); c != "" {
		lines[2] = "counters: " + c
	}
	return strings.Join(slices.DeleteFunc(lines, func(l string) bool { return l == "" }), "\n")
}

// faultDiag renders rank r's view of the adversary for Diag: which peers
// are dead (and whether detection has fired), which of r's links are inside
// or facing a flap window, the state of r's ARQ streams (unacked depths,
// pending retransmit timers) — so a fault-induced stall is distinguishable
// from a protocol deadlock. Returns "" when fault injection is disabled.
func (nw *Network) faultDiag(r int) string {
	fs := nw.faults
	if fs == nil {
		return ""
	}
	now := nw.nics[r].k.Now()
	var b strings.Builder
	for _, d := range fs.fp.Deaths {
		switch {
		case now < d.At:
			fmt.Fprintf(&b, "fault: rank %d death scheduled at t=%d\n", d.Rank, d.At)
		case fs.detected(d.Rank, now):
			fmt.Fprintf(&b, "fault: rank %d DEAD since t=%d (detected at t=%d)\n", d.Rank, d.At, d.At+fs.detect)
		default:
			fmt.Fprintf(&b, "fault: rank %d DEAD since t=%d (undetected, detect at t=%d)\n", d.Rank, d.At, d.At+fs.detect)
		}
	}
	for _, w := range fs.fp.Flaps {
		if w.Src != r && w.Dst != r {
			continue
		}
		state := "pending"
		switch {
		case now >= w.From+w.For:
			state = "lifted"
		case now >= w.From:
			state = fmt.Sprintf("DOWN, up at t=%d", w.From+w.For)
		}
		fmt.Fprintf(&b, "fault: link %d->%d flap [t=%d,+%d) %s\n", w.Src, w.Dst, w.From, w.For, state)
	}
	fs.rank[r].diagStreams(&b, r)
	return strings.TrimRight(b.String(), "\n")
}
