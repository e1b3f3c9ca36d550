package topo

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// delivery records one packet landing at its destination.
type delivery struct {
	id  int
	dst int
	t   sim.Time
}

// testEngine builds a kernel + engine over the spec and returns a recorder.
func testEngine(t *testing.T, spec Spec, nodes int) (*sim.Kernel, *Engine, *[]delivery) {
	t.Helper()
	g := mustBuild(t, spec, nodes)
	k := sim.NewKernel()
	var got []delivery
	e := NewEngine(k, g, func(delay sim.Time, payload any, dst int) {
		// deliver fires at final-link tx end; the arrival instant is delay later.
		got = append(got, delivery{payload.(int), dst, k.Now() + delay})
	})
	return k, e, &got
}

// occ is the wire time of one packet on the uniform test links.
func occ(spec Spec, size int64) sim.Time {
	over := spec.PktOverheadBytes
	if over == 0 {
		over = DefaultPktOverheadBytes
	}
	return sim.Time(float64(size+int64(over)) / spec.LinkBytesPerUs * float64(sim.Microsecond))
}

// TestUncontendedLatency pins the end-to-end pipeline model: with no
// contention a packet takes hops x (occupancy + hop latency).
func TestUncontendedLatency(t *testing.T) {
	spec := testSpec(Ring)
	k, e, got := testEngine(t, spec, 8)
	k.At(0, func() { e.Send(7, 0, 3, 936) }) // 3 hops; 936+64 bytes = 1us occ
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 3 * (occ(spec, 936) + spec.HopLatency)
	if len(*got) != 1 || (*got)[0].t != want {
		t.Fatalf("deliveries %v, want one at t=%d", *got, want)
	}
	if s := e.Summary(); s.Delivered != 1 || s.Forwarded != 3 || s.CreditStalls != 0 {
		t.Errorf("summary %+v, want 1 delivered over 3 uncontended hops", s)
	}
}

// TestSharedLinkSerializes pins bandwidth arbitration: two packets injected
// at the same instant over the same link serialize, FIFO by arrival.
func TestSharedLinkSerializes(t *testing.T) {
	spec := testSpec(Ring)
	k, e, got := testEngine(t, spec, 8)
	k.At(0, func() {
		e.Send(1, 0, 2, 936)
		e.Send(2, 0, 2, 936)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	per := occ(spec, 936) + spec.HopLatency
	if len(*got) != 2 {
		t.Fatalf("%d deliveries, want 2", len(*got))
	}
	if (*got)[0].id != 1 || (*got)[1].id != 2 {
		t.Fatalf("delivery order %v, want FIFO", *got)
	}
	// Pipelined cut-through: the second packet trails by one occupancy.
	if d := (*got)[1].t - (*got)[0].t; d != occ(spec, 936) {
		t.Errorf("second packet trails by %d, want one occupancy (%d)", d, occ(spec, 936))
	}
	if (*got)[0].t != 2*per {
		t.Errorf("first delivery at %d, want %d", (*got)[0].t, 2*per)
	}
	if s := e.Summary(); s.QueuedTime == 0 {
		t.Error("no queued time recorded for a contended link")
	}
}

// TestCreditBackpressure pins flow control: with tiny link buffers a burst
// must stall upstream (credit stalls observed) yet still deliver everything
// in order.
func TestCreditBackpressure(t *testing.T) {
	spec := testSpec(Ring)
	spec.LinkCredits = 2
	k, e, got := testEngine(t, spec, 8)
	const burst = 20
	k.At(0, func() {
		for i := 0; i < burst; i++ {
			e.Send(i, 0, 3, 936)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != burst {
		t.Fatalf("%d deliveries, want %d", len(*got), burst)
	}
	for i, d := range *got {
		if d.id != i {
			t.Fatalf("delivery %d has id %d; FIFO violated: %v", i, d.id, *got)
		}
	}
	s := e.Summary()
	if s.CreditStalls == 0 {
		t.Error("no credit stalls under a 20-packet burst with 2 credits/link")
	}
	if e.inFlight() {
		t.Error("engine not quiescent after Run")
	}
}

// TestRingSaturationDrains is the bubble-rule deadlock test: all-to-all
// bursts on a small ring with minimum credits must drain completely.
func TestRingSaturationDrains(t *testing.T) {
	for _, kind := range []Kind{Ring, Torus} {
		t.Run(kind.String(), func(t *testing.T) {
			spec := testSpec(kind)
			spec.LinkCredits = 2
			const n = 6
			k, e, got := testEngine(t, spec, n)
			sent := 0
			k.At(0, func() {
				for r := 0; r < 4; r++ {
					for s := 0; s < n; s++ {
						for d := 0; d < n; d++ {
							if s != d {
								e.Send(sent, s, d, 512)
								sent++
							}
						}
					}
				}
			})
			k.SetWatchdog(1_000_000, 0)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if len(*got) != sent {
				t.Fatalf("%d of %d packets delivered", len(*got), sent)
			}
			if e.inFlight() {
				t.Error("packets still in flight after drain")
			}
		})
	}
}

// TestFatTreeContention drives many hosts at one destination through the
// fat-tree and checks arrivals serialize on the shared down-link.
func TestFatTreeContention(t *testing.T) {
	spec := testSpec(FatTree)
	spec.HostsPerLeaf, spec.Spines = 4, 2
	k, e, got := testEngine(t, spec, 16)
	k.At(0, func() {
		for s := 1; s < 16; s++ {
			e.Send(s, s, 0, 936)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 15 {
		t.Fatalf("%d deliveries, want 15", len(*got))
	}
	// The last-hop link leaf0->host0 serializes all 15: arrivals at least
	// one occupancy apart.
	for i := 1; i < len(*got); i++ {
		if d := (*got)[i].t - (*got)[i-1].t; d < occ(spec, 936) {
			t.Fatalf("arrivals %d and %d only %d apart, want >= %d", i-1, i, d, occ(spec, 936))
		}
	}
	if s := e.Summary(); s.QueuedTime == 0 || s.MaxQueue < 2 {
		t.Errorf("incast left no congestion footprint: %+v", s)
	}
}

// lcgTraffic schedules packets irregular sources, destinations, sizes and
// injection instants drawn from a tiny deterministic LCG (no global rand):
// draws src/dst pairs over the first nodes hosts, skipping self-sends, with
// injection times spread over windowUs microseconds.
func lcgTraffic(k *sim.Kernel, e *Engine, nodes, draws int, windowUs int64) {
	seed := int64(12345)
	next := func() int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) & 0x7fffffff
	}
	id := 0
	for i := 0; i < draws; i++ {
		src := int(next() % int64(nodes))
		dst := int(next() % int64(nodes))
		if src == dst {
			continue
		}
		at := sim.Time(next()%windowUs) * sim.Microsecond
		size := next()%4096 + 1
		pid := id
		id++
		k.At(at, func() { e.Send(pid, src, dst, size) })
	}
}

// TestEngineDeterministic replays an irregular traffic mix twice and
// requires identical delivery transcripts.
func TestEngineDeterministic(t *testing.T) {
	run := func() string {
		spec := testSpec(Torus)
		spec.LinkCredits = 3
		k, e, got := testEngine(t, spec, 9)
		lcgTraffic(k, e, 9, 200, 50)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v|%+v", *got, e.Summary())
	}
	if a, b := run(), run(); a != b {
		t.Fatal("two identical runs produced different transcripts")
	}
}

// TestGoldenSchedules pins the congestion engine's exact schedule under
// saturation, where the order of credit wake-ups decides who transmits: a
// hash of the delivery order and arrival times, the literal Summary and the
// final clock, on all three topologies. The ring and the torus exercise the
// bubble rule's two-slot entry, held slots and transit-over-inject priority,
// which no fat-tree run (and so no benchmark digest) ever reaches. The
// literals were captured on the engine that re-kicked every upstream link on
// every freed credit; any change to who is woken, or in which order, that is
// not exactly behaviour-preserving moves them.
func TestGoldenSchedules(t *testing.T) {
	cases := []struct {
		name    string
		kind    Kind
		credits int
		nodes   int
		traffic func(k *sim.Kernel, e *Engine)
		hash    uint64
		sum     Summary
		end     sim.Time
	}{
		{
			name: "ring", kind: Ring, credits: 2, nodes: 6,
			// Four all-to-all rounds injected at once, then the same again
			// while the first wave still fills the ring: fresh injections
			// compete with transit traffic holding slots.
			traffic: func(k *sim.Kernel, e *Engine) {
				id := 0
				wave := func() {
					for r := 0; r < 4; r++ {
						for s := 0; s < 6; s++ {
							for d := 0; d < 6; d++ {
								if s != d {
									e.Send(id, s, d, int64(200+97*(id%7)))
									id++
								}
							}
						}
					}
				}
				k.At(0, wave)
				k.At(8*sim.Microsecond, wave)
			},
			hash: 0xbe516c9a5332df9b, end: 42237,
			sum: Summary{Links: 12, Delivered: 240, Forwarded: 432, QueuedTime: 2198102, BusyTime: 237529, CreditStalls: 145, MaxQueue: 20},
		},
		{
			name: "torus", kind: Torus, credits: 3, nodes: 9,
			traffic: func(k *sim.Kernel, e *Engine) { lcgTraffic(k, e, 9, 1500, 40) },
			hash:    0xe72a641948f7d47e, end: 169037,
			sum: Summary{Links: 36, Delivered: 1332, Forwarded: 1996, QueuedTime: 60900172, BusyTime: 4273105, CreditStalls: 201, MaxQueue: 54},
		},
		{
			name: "fattree", kind: FatTree, credits: 2, nodes: 8,
			// Every host streams to its counterpart on the other leaf and to
			// one shared victim: the spine links and one down-link saturate.
			traffic: func(k *sim.Kernel, e *Engine) {
				k.At(0, func() {
					id := 0
					for i := 0; i < 12; i++ {
						for s := 0; s < 8; s++ {
							e.Send(id, s, (s+4)%8, int64(300+211*(i%4)))
							id++
							if s != 5 {
								e.Send(id, s, 5, 128)
								id++
							}
						}
					}
				})
			},
			hash: 0xe50e65a040a408fe, end: 84786,
			sum: Summary{Links: 24, Delivered: 180, Forwarded: 648, QueuedTime: 5165904, BusyTime: 312000, CreditStalls: 213, MaxQueue: 23},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := testSpec(c.kind)
			spec.LinkCredits = c.credits
			if c.kind == FatTree {
				spec.HostsPerLeaf, spec.Spines = 4, 2
			}
			k, e, got := testEngine(t, spec, c.nodes)
			c.traffic(k, e)
			k.SetWatchdog(10_000_000, 0)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, d := range *got {
				fmt.Fprintf(h, "%d>%d@%d;", d.id, d.dst, d.t)
			}
			sum := e.Summary()
			if sum.CreditStalls == 0 {
				t.Error("traffic never stalled on credits: the schedule does not depend on wake-up order")
			}
			if h.Sum64() != c.hash || sum != c.sum || k.Now() != c.end {
				t.Errorf("schedule moved:\n got hash %#x, end %d, %+v\nwant hash %#x, end %d, %+v",
					h.Sum64(), k.Now(), sum, c.hash, c.end, c.sum)
			}
			if e.inFlight() {
				t.Error("engine not quiescent after Run")
			}
			// A waiter bit outlives its stall only until the next freed slot,
			// and a head cannot start without one: a drained engine has none.
			for i := range e.links {
				for _, m := range e.links[i].waiters {
					if m != 0 {
						t.Fatalf("link %s still has waiters %#x registered after the drain", e.G.LinkName(i), m)
					}
				}
			}
		})
	}
}

// TestPerPairFIFO checks per-(src,dst) ordering under cross traffic.
func TestPerPairFIFO(t *testing.T) {
	spec := testSpec(FatTree)
	spec.HostsPerLeaf, spec.Spines = 2, 2
	spec.LinkCredits = 2
	k, e, got := testEngine(t, spec, 8)
	const per = 10
	k.At(0, func() {
		for i := 0; i < per; i++ {
			for s := 0; s < 8; s++ {
				e.Send(s*per+i, s, (s+3)%8, int64(100*(i%3+1)))
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	last := map[int]int{}
	for _, d := range *got {
		src := d.id / per
		if seq := d.id % per; seq != last[src] {
			t.Fatalf("src %d delivered seq %d, want %d", src, seq, last[src])
		}
		last[src]++
	}
	for s := 0; s < 8; s++ {
		if last[s] != per {
			t.Fatalf("src %d delivered %d of %d", s, last[s], per)
		}
	}
}

// TestHostDiag smoke-tests the watchdog rendering.
func TestHostDiag(t *testing.T) {
	spec := testSpec(Ring)
	spec.LinkCredits = 2
	k, e, _ := testEngine(t, spec, 8)
	k.At(0, func() {
		for i := 0; i < 20; i++ {
			e.Send(i, 0, 3, 2000)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d := e.HostDiag(0); d == "" {
		t.Error("HostDiag empty after congestion")
	}
	quietK := sim.NewKernel()
	quiet := NewEngine(quietK, mustBuild(t, testSpec(Ring), 4), func(sim.Time, any, int) {})
	if d := quiet.HostDiag(0); d != "" {
		t.Errorf("HostDiag on idle engine = %q, want empty", d)
	}
}

// TestEngineAllocs pins where the engine's storage lives. NewEngineIn makes
// three objects whatever the graph's size — the engine, its link states and
// the one arena behind every link's waiter set — and a standalone NewEngine
// one more, the counter row a world's metrics set would otherwise hold. A run
// allocates nothing
// per hop once the token pool, the link queues and the kernel's event
// storage have grown to the traffic: here a 2-credit fat-tree driven into
// credit stalls, the same burst over and over.
func TestEngineAllocs(t *testing.T) {
	spec := testSpec(FatTree)
	spec.HostsPerLeaf, spec.Spines, spec.LinkCredits = 8, 2, 2
	deliver := func(sim.Time, any, int) {}
	for _, nodes := range []int{16, 128} {
		g := mustBuild(t, spec, nodes)
		k := sim.NewKernel()
		set := metrics.NewSet(0, "topo")
		row := set.Row(0)
		if n := testing.AllocsPerRun(10, func() { NewEngineIn(k, g, deliver, row) }); n != 3 {
			t.Errorf("NewEngineIn over %d hosts: %.0f allocations, want 3", nodes, n)
		}
		if n := testing.AllocsPerRun(10, func() { NewEngine(k, g, deliver) }); n != 4 {
			t.Errorf("NewEngine over %d hosts: %.0f allocations, want 4", nodes, n)
		}
	}

	const nodes = 32
	k := sim.NewKernel()
	e := NewEngine(k, mustBuild(t, spec, nodes), deliver)
	burst := func() {
		for i := 0; i < 4; i++ {
			for src := 0; src < nodes; src++ {
				e.Send(nil, src, (src+nodes/2)%nodes, 936)
				e.Send(nil, src, (src+1)%nodes, 200)
			}
		}
		if err := k.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	burst() // warm-up
	stalls := e.Summary().CreditStalls
	if n := testing.AllocsPerRun(5, burst); n != 0 {
		t.Errorf("%.0f allocations per saturated burst after warm-up, want 0", n)
	}
	if e.Summary().CreditStalls == stalls {
		t.Error("the measured bursts never stalled on credits: the waiter sets were not exercised")
	}
}

// inFlight reports whether any packet is queued or crossing a link
// (testing helper: quiescence means all queues drained).
func (e *Engine) inFlight() bool {
	for i := range e.links {
		if ls := &e.links[i]; ls.busy || len(ls.transit) > 0 || len(ls.inject) > 0 {
			return true
		}
	}
	return false
}
