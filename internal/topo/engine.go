package topo

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Engine is the runtime congestion model of one built topology: per-link
// FIFO queues arbitrating shared bandwidth on the virtual clock, plus
// credit-based flow control (virtual-cut-through style: a packet may start
// crossing a link only when the downstream input buffer has a free slot,
// reserved ahead of the transmission).
//
// Like the rest of the fabric, the engine is owned by the simulation's
// single-threaded event loop: service order is per-link FIFO, a credit
// release kicks the upstream links stalled on that link in ascending link
// order (see kickFeeders), and every continuation is a shared capture-free
// callback — so schedules are a pure function of the topology spec and the
// offered traffic.
//
// Deadlock freedom: fat-tree up/down routes are acyclic. Ring and torus
// links form directed cycles, so credit waits could in principle close a
// cycle; the engine applies bubble flow control — entering a cycle (from a
// host, or turning dimensions) needs two free downstream slots, continuing
// inside it needs one — so no cycle can be driven to fully-occupied, and
// since transmissions complete on the clock (never blocking on credits
// mid-flight), some head packet in a saturated ring can always advance.
type Engine struct {
	K *sim.Kernel
	G *Graph

	// deliver receives every packet entering its final-link flight: it is
	// invoked at transmission end, delay (that link's latency) before the
	// packet's arrival instant. Surfacing the remaining latency — instead of
	// waiting it out inside the engine — gives a sharded fabric a full
	// link-latency lookahead window to ship the delivery across shards.
	deliver func(delay sim.Time, payload any, dst int)

	links  []linkState
	tokens sim.Pool[token]
	ctr    metrics.Row // the topo.* counters: a world's fabric-wide row
}

// The engine-wide counters, in the fabric-wide row of a metrics set.
var (
	cDelivered = metrics.Declare("topo.delivered")     // packets handed to deliver
	cForwarded = metrics.Declare("topo.forwarded")     // link transmissions (delivered x hops)
	cQueued    = metrics.Declare("topo.queued_ns")     // total time spent waiting in link queues
	cBusy      = metrics.Declare("topo.busy_ns")       // total wire occupancy
	cStalls    = metrics.Declare("topo.credit_stalls") // head-of-line credit-stall episodes
	cMaxQueue  = metrics.Declare("topo.max_queue")     // deepest link queue anywhere: a high-water mark
)

// linkStats counts one directed link's congestion for HostDiag.
type linkStats struct {
	QueuedTime   sim.Time // total time packets waited in the link's queue
	CreditStalls int64    // head-of-queue episodes stalled on downstream credits
	MaxQueue     int      // deepest queue observed
}

// linkState is the runtime state of one directed link. Two input queues
// feed the wire: transit tokens (arrived over an upstream link, each
// holding one of this link's buffer slots) and fresh host injections
// (unbounded, holding nothing), both chained through the tokens' own
// link. Transit has priority, and a stalled head
// in one queue never blocks the other — the separation real bubble
// routers use so that an injection waiting for its two-slot bubble cannot
// head-of-line-block ring traffic that only needs one.
type linkState struct {
	e       *Engine
	link    *Link
	transit sim.Queue[token]
	inject  sim.Queue[token]
	busy    bool
	// slots counts free input-buffer credits of this link: reserved when an
	// upstream transmission toward this link starts, released when the
	// reserving packet starts its own onward transmission off this link.
	slots   int
	stalled bool // some head currently credit-stalled (dedups CreditStalls)
	// waiters has one bit per feeder of this link (bit feederPos[f] for
	// upstream link f), set when a head of f failed to start for lack of a
	// slot here and cleared just before the freed slot's kick of f.
	waiters []uint64
	stats   linkStats
}

// token is one packet in flight through the topology.
type token struct {
	e       *Engine
	payload any
	size    int64
	dst     int // destination host
	cur     int // link currently queued on / transmitting on
	next    int // next link (slot reserved), -1 when cur ends at dst
	// heldSlot marks a token that reserved cur's downstream slot before
	// entering it (everything but source injection); it doubles as the
	// "already traveling inside this cycle" marker for the bubble rule.
	heldSlot bool
	enqT     sim.Time
	nextTok  *token // the link queue's chain, or the pool's
}

func tokenLink(t *token) **token { return &t.nextTok }

// NewEngine builds the runtime for a built graph, counting into a metrics
// set of its own. deliver is invoked in kernel context for every packet that
// reaches its destination host, one final-link latency before the arrival
// instant (see Engine.deliver).
func NewEngine(k *sim.Kernel, g *Graph, deliver func(delay sim.Time, payload any, dst int)) *Engine {
	own := metrics.NewSet(0, "topo")
	return NewEngineIn(k, g, deliver, own.Row(0))
}

// NewEngineIn is NewEngine counting into ctr, a world's fabric-wide row.
func NewEngineIn(k *sim.Kernel, g *Graph, deliver func(delay sim.Time, payload any, dst int), ctr metrics.Row) *Engine {
	e := &Engine{K: k, G: g, deliver: deliver, ctr: ctr, tokens: sim.NewPool(tokenLink)}
	e.links = make([]linkState, len(g.Links))
	words := 0
	for _, fs := range g.feeders {
		words += (len(fs) + 63) / 64
	}
	arena := make([]uint64, words) // every link's waiter set, one allocation
	for i := range e.links {
		ls := &e.links[i]
		ls.e = e
		ls.link = &g.Links[i]
		ls.slots = g.Links[i].Credits
		ls.transit, ls.inject = sim.NewQueue(tokenLink), sim.NewQueue(tokenLink)
		n := (len(g.feeders[i]) + 63) / 64
		ls.waiters, arena = arena[:n:n], arena[n:]
	}
	return e
}

// Send injects a packet at host src toward host dst. The source-side queue
// (the host's own injection buffer) is unbounded — backpressure reaches the
// sender through delivery latency, exactly as transport-level flow control
// sees it — while every switch-level hop is bounded by link credits.
func (e *Engine) Send(payload any, src, dst int, size int64) {
	if src == dst || src < 0 || dst < 0 || src >= e.G.N || dst >= e.G.N {
		panic(fmt.Sprintf("topo: send %d->%d outside the %d-host topology", src, dst, e.G.N))
	}
	t := e.tokens.Get()
	t.e, t.payload, t.size, t.dst = e, payload, size, dst
	e.enqueue(&e.links[e.G.NextHop(src, dst)], t, false)
}

// enqueue parks t at ls's transit or injection queue and kicks the link.
func (e *Engine) enqueue(ls *linkState, t *token, held bool) {
	t.cur = ls.link.ID
	t.heldSlot = held
	t.enqT = e.K.Now()
	if held {
		ls.transit.Push(t)
	} else {
		ls.inject.Push(t)
	}
	if q := ls.transit.Len() + ls.inject.Len(); q > ls.stats.MaxQueue {
		ls.stats.MaxQueue = q
		e.ctr.Max(cMaxQueue, int64(q))
	}
	e.kick(ls)
}

// required returns how many free downstream slots t needs to start its
// transmission on cur toward next: two to enter a ring cycle (bubble flow
// control), one otherwise.
func (e *Engine) required(t *token, cur, next *Link) int {
	if next.Cyc < 0 {
		return 1
	}
	if t.heldSlot && cur.Cyc == next.Cyc {
		return 1 // already traveling inside this cycle
	}
	return 2
}

// kick starts the next transmission if the wire is free: the transit head
// first (fixed priority), the injection head otherwise.
func (e *Engine) kick(ls *linkState) {
	if ls.busy {
		return
	}
	if ls.transit.Len() > 0 && e.start(ls, &ls.transit) {
		return
	}
	if ls.inject.Len() > 0 && e.start(ls, &ls.inject) {
		return
	}
}

// start tries to launch the head of q on ls's wire; it reports whether a
// transmission began. On a credit stall it charges CreditStalls once per
// episode, registers ls as a waiter on the link it lacked a slot on, and
// leaves the head queued for that link's next freed slot to re-kick.
func (e *Engine) start(ls *linkState, q *sim.Queue[token]) bool {
	t := q.Head()
	next := -1
	if ls.link.To != t.dst {
		next = e.G.NextHop(ls.link.To, t.dst)
		ns := &e.links[next]
		if ns.slots < e.required(t, ls.link, ns.link) {
			if !ls.stalled {
				ls.stalled = true
				ls.stats.CreditStalls++
				e.ctr.Add(cStalls, 1)
			}
			pos := uint(e.G.feederPos[ls.link.ID])
			ns.waiters[pos/64] |= 1 << (pos % 64)
			return false // re-kicked when ns frees a slot
		}
		ns.slots--
	}
	ls.stalled = false
	q.Remove(nil, t)
	t.next = next
	ls.busy = true
	waited, occ := e.K.Now()-t.enqT, ls.occupancy(t.size)
	ls.stats.QueuedTime += waited
	e.ctr.Add(cQueued, int64(waited))
	e.ctr.Add(cForwarded, 1)
	e.ctr.Add(cBusy, int64(occ))
	e.K.AfterCall(occ, tokenTxDone, t)
	// Virtual cut-through: the packet's bits stream into the downstream
	// buffer as they transmit, so the slot it held here frees at tx START,
	// making release+reserve one atomic step. Atomic moves keep per-ring
	// occupancy constant, and with the two-slot entry rule no directed
	// cycle can ever fill completely (the bubble invariant).
	if t.heldSlot {
		ls.slots++
		e.kickFeeders(ls)
	}
	return true
}

// occupancy is the wire time of one packet on this link: payload plus the
// per-packet framing overhead, at the link's bandwidth.
func (ls *linkState) occupancy(size int64) sim.Time {
	bytes := float64(size + int64(ls.e.G.Spec.PktOverheadBytes))
	return sim.Time(bytes / ls.link.BytesPerUs * float64(sim.Microsecond))
}

// tokenTxDone fires when t's last byte leaves its current link: the wire
// frees (the buffer slot already returned at tx start — see kick) and the
// packet propagates one hop. A final-link packet is handed to deliver here
// — its remaining flight is pure latency, no more shared resources — with
// the link latency as the delivery delay.
func tokenTxDone(x any) {
	t := x.(*token)
	e := t.e
	ls := &e.links[t.cur]
	ls.busy = false
	e.kick(ls)
	if t.next < 0 {
		payload, dst := t.payload, t.dst
		e.ctr.Add(cDelivered, 1)
		lat := ls.link.Lat
		e.tokens.Put(t)
		e.deliver(lat, payload, dst)
		return
	}
	e.K.AfterCall(ls.link.Lat, tokenArrive, t)
}

// kickFeeders retries the upstream links with a head stalled on ls, whose
// slot was just freed, in ascending link order (the fixed tie-break). Each
// waiter's bit is cleared before its kick; a kick that stalls on ls again
// sets it again, below the scan position.
//
// Kicking only the registered waiters schedules exactly what kicking every
// feeder of ls would, because for any other feeder f the kick changes
// nothing: a busy or empty f returns at once, and an idle f with a non-empty
// queue was left that way by a kick in which every head it tried failed — so
// f.stalled is already true, and each of those heads set f's bit on the link
// it lacked a slot on. That link is not ls (f is not registered here), and
// had it freed a slot since, its own kickFeeders would have found the bit;
// so the heads still lack their slots, start fails again, and with stalled
// already true it counts nothing. Nor can a feeder become startable toward
// ls behind the scan: ls went busy before this call and frees slots only
// when it starts a transmission, so during the loop ls.slots can only fall.
func (e *Engine) kickFeeders(ls *linkState) {
	fs := e.G.feeders[ls.link.ID]
	for wi := range ls.waiters {
		for m := ls.waiters[wi]; m != 0; {
			b := bits.TrailingZeros64(m)
			ls.waiters[wi] &^= 1 << b
			e.kick(&e.links[fs[wi*64+b]])
			m = ls.waiters[wi] &^ (2<<b - 1) // re-read: nested kicks may register more
		}
	}
}

// tokenArrive lands t at the far end of its current link: the input queue
// of the next link, whose slot the token already holds (final-link packets
// were handed to deliver at tokenTxDone and never get here).
func tokenArrive(x any) {
	t := x.(*token)
	t.e.enqueue(&t.e.links[t.next], t, true)
}

// MinLinkLat returns the smallest latency of any link — the lookahead bound
// a sharded fabric may rely on between final-link handoff and arrival — or 0
// when the graph has no links.
func (e *Engine) MinLinkLat() sim.Time {
	var min sim.Time
	for i := range e.links {
		if l := e.links[i].link.Lat; min == 0 || l < min {
			min = l
		}
	}
	return min
}

// --- Observability ----------------------------------------------------- //

// Summary aggregates engine-wide congestion counters.
type Summary struct {
	Links        int
	Delivered    int64
	Forwarded    int64    // link transmissions (delivered x hops)
	QueuedTime   sim.Time // total time spent waiting in link queues
	BusyTime     sim.Time // total wire occupancy
	CreditStalls int64    // head-of-line credit-stall episodes
	MaxQueue     int      // deepest link queue anywhere
}

// Summary returns the engine-wide aggregate: an adapter over the topo.*
// counters, kept for benchmarks/.
func (e *Engine) Summary() Summary {
	c := e.ctr
	return Summary{Links: len(e.links), Delivered: c.Get(cDelivered), Forwarded: c.Get(cForwarded), QueuedTime: sim.Time(c.Get(cQueued)),
		BusyTime: sim.Time(c.Get(cBusy)), CreditStalls: c.Get(cStalls), MaxQueue: int(c.Get(cMaxQueue))}
}

// HostDiag renders the congestion state relevant to one host for watchdog
// and deadlock reports: the host's attached links plus the overall hottest
// links by queued time. Returns "" when nothing ever queued or stalled.
func (e *Engine) HostDiag(host int) string {
	var b strings.Builder
	for i := range e.links {
		ls := &e.links[i]
		if ls.link.From != host && ls.link.To != host {
			continue
		}
		q := ls.transit.Len() + ls.inject.Len()
		if ls.stats.QueuedTime == 0 && ls.stats.CreditStalls == 0 && q == 0 {
			continue
		}
		fmt.Fprintf(&b, "link %s: q=%d busy=%v slots=%d queued=%dus stalls=%d\n",
			e.G.LinkName(i), q, ls.busy, ls.slots,
			ls.stats.QueuedTime/sim.Microsecond, ls.stats.CreditStalls)
	}
	type hot struct {
		id int
		q  sim.Time
	}
	hots := make([]hot, 0, len(e.links))
	for i := range e.links {
		if q := e.links[i].stats.QueuedTime; q > 0 {
			hots = append(hots, hot{i, q})
		}
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].q != hots[j].q {
			return hots[i].q > hots[j].q
		}
		return hots[i].id < hots[j].id
	})
	if len(hots) > 3 {
		hots = hots[:3]
	}
	for _, h := range hots {
		fmt.Fprintf(&b, "hot %s: queued=%dus stalls=%d max_q=%d\n",
			e.G.LinkName(h.id), h.q/sim.Microsecond,
			e.links[h.id].stats.CreditStalls, e.links[h.id].stats.MaxQueue)
	}
	if b.Len() == 0 {
		return ""
	}
	return fmt.Sprintf("topo %s: ", e.G.Spec.Kind) + strings.TrimRight(b.String(), "\n")
}
