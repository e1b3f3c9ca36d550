package fabric

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// topoNet builds an n-rank network (1 rank per node) on the given topology
// with the round-number calibration of testNet.
func topoNet(n int, spec topo.Spec) (*sim.Kernel, *Network) {
	k := sim.NewKernel()
	cfg := Config{
		ProcsPerNode:    1,
		Alpha:           10 * sim.Microsecond,
		BytesPerUs:      1000,
		AlphaIntra:      1 * sim.Microsecond,
		BytesPerUsIntra: 10000,
		CreditsPerPeer:  0,
		AckLatency:      5 * sim.Microsecond,
		FifoCapacity:    8,
		Channels:        1,
		Topo:            spec,
	}
	return k, NewNetwork(k, n, cfg)
}

// TestCrossbarBuildsNoTopology pins the default: the zero-value Topo spec
// must leave the network on the untouched crossbar path.
func TestCrossbarBuildsNoTopology(t *testing.T) {
	_, nw := testNet(2, 0)
	if nw.topo != nil {
		t.Fatal("default config built a topology engine")
	}
	if d := nw.Diag(0); d != "" {
		t.Fatalf("crossbar Diag = %q, want empty", d)
	}
}

// TestFatTreeBaseLatencyMatchesCrossbar pins the calibration default: with
// HopLatency inherited as Alpha/2, an isolated same-leaf transfer (two
// hops) reproduces the crossbar's base latency plus the per-hop framing.
func TestFatTreeBaseLatencyMatchesCrossbar(t *testing.T) {
	spec := topo.Spec{Kind: topo.FatTree, HostsPerLeaf: 4, Spines: 2}
	k, nw := topoNet(4, spec)
	var at sim.Time
	nw.SetHandler(1, func(p *Packet) { at = k.Now() })
	nw.SetHandler(0, func(p *Packet) {})
	k.At(0, func() { nw.Send(&Packet{Src: 0, Dst: 1, Size: 5000}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 5us NIC wire + 2 hops x (5us hop latency + (5000+64)/1000 us link
	// occupancy) = 5 + 2*(5 + 5.064) us.
	want := 5*sim.Microsecond + 2*(5*sim.Microsecond+5064*sim.Nanosecond)
	if at != want {
		t.Fatalf("delivered at %d ns, want %d ns", at, want)
	}
}

// TestTopoCreditReturn pins the egress credit path: with 1 credit per peer
// the second packet's transmission waits for the first's topology egress
// plus AckLatency.
func TestTopoCreditReturn(t *testing.T) {
	spec := topo.Spec{Kind: topo.FatTree, HostsPerLeaf: 4, Spines: 2}
	k := sim.NewKernel()
	cfg := Config{
		ProcsPerNode: 1, Alpha: 10 * sim.Microsecond, BytesPerUs: 1000,
		AlphaIntra: sim.Microsecond, BytesPerUsIntra: 10000,
		CreditsPerPeer: 1, AckLatency: 5 * sim.Microsecond, FifoCapacity: 8,
		Channels: 1, Topo: spec,
	}
	nw := NewNetwork(k, 4, cfg)
	var arrivals []sim.Time
	nw.SetHandler(1, func(p *Packet) { arrivals = append(arrivals, k.Now()) })
	nw.SetHandler(0, func(p *Packet) {})
	k.At(0, func() {
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 1000})
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 1000})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("%d deliveries, want 2", len(arrivals))
	}
	// First: 1us NIC wire, then 2 hops x (5us + 1.064us). Second: credit
	// returns at first egress + 5us AckLatency, then its own wire + hops.
	first := sim.Microsecond + 2*(5*sim.Microsecond+1064*sim.Nanosecond)
	second := first + 5*sim.Microsecond + sim.Microsecond + 2*(5*sim.Microsecond+1064*sim.Nanosecond)
	if arrivals[0] != first || arrivals[1] != second {
		t.Fatalf("arrivals %v, want [%d %d]", arrivals, first, second)
	}
}

// TestTopoIncastCongests drives 7 senders at one receiver across a
// one-spine fat-tree and checks the shared down-link serializes them —
// the congestion the crossbar cannot express.
func TestTopoIncastCongests(t *testing.T) {
	spec := topo.Spec{Kind: topo.FatTree, HostsPerLeaf: 2, Spines: 1}
	k, nw := topoNet(8, spec)
	var arrivals []sim.Time
	nw.SetHandler(0, func(p *Packet) { arrivals = append(arrivals, k.Now()) })
	for r := 1; r < 8; r++ {
		nw.SetHandler(r, func(p *Packet) {})
	}
	k.At(0, func() {
		for r := 1; r < 8; r++ {
			nw.Send(&Packet{Src: r, Dst: 0, Size: 10000})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 7 {
		t.Fatalf("%d deliveries, want 7", len(arrivals))
	}
	occ := sim.Time(10064 * sim.Microsecond / 1000) // (10000+64)/1000 us
	for i := 1; i < len(arrivals); i++ {
		if d := arrivals[i] - arrivals[i-1]; d < occ {
			t.Fatalf("arrivals %d apart, want >= %d (leaf down-link must serialize)", d, occ)
		}
	}
	if fab := nw.Counters.Row(nw.Counters.Ranks); fab[topoQueued] == 0 || fab[topoDelivered] != 7 {
		t.Fatalf("incast left no congestion footprint: %v", nw.Counters.Snapshot())
	}
	if d := nw.Diag(0); d == "" {
		t.Fatal("Diag empty after congestion at rank 0's node")
	}
}

// TestDiagJoinsFaultAndTopo pins the fabric's one watchdog report: on a
// lossy fat-tree after an incast, Diag holds the adversary's lines and then
// the congestion block around the rank's node, each exactly once.
func TestDiagJoinsFaultAndTopo(t *testing.T) {
	k, nw := topoNet(8, topo.Spec{Kind: topo.FatTree, HostsPerLeaf: 2, Spines: 1})
	fp := DefaultFaultProfile(5)
	fp.Drop = 0.1
	fp.Flaps = []LinkFlap{{Src: 1, Dst: 0, From: 0, For: 20 * sim.Microsecond}}
	nw.EnableFaults(fp)
	for r := 0; r < 8; r++ {
		nw.SetHandler(r, func(*Packet) {})
	}
	k.At(0, func() {
		for r := 1; r < 8; r++ {
			p := nw.AllocPacket()
			p.Src, p.Dst, p.Kind, p.Size = r, 0, KindUser, 10000
			nw.Send(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	d := nw.Diag(0)
	const flap, block = "fault: link 1->0 flap", "topo fattree: "
	if strings.Count(d, flap) != 1 || strings.Count(d, block) != 1 {
		t.Fatalf("Diag(0) holds %q %d times and %q %d times, want once each:\n%s",
			flap, strings.Count(d, flap), block, strings.Count(d, block), d)
	}
	if strings.Index(d, flap) > strings.Index(d, block) {
		t.Fatalf("topology block precedes the fault lines:\n%s", d)
	}
}

// TestTopoPerPeerFIFOUnderContentionAndFaults is the combined property
// test: topology enabled (shared-link contention), lossy profile with
// drop/dup/corrupt/jitter (reordering and replay pressure) — per-peer
// delivery must stay exactly-once in-order for every (src, dst) pair.
func TestTopoPerPeerFIFOUnderContentionAndFaults(t *testing.T) {
	const n, perPair = 6, 12
	for seed := uint64(1); seed <= 8; seed++ {
		spec := topo.Spec{Kind: topo.FatTree, HostsPerLeaf: 2, Spines: 1, LinkCredits: 2}
		k := sim.NewKernel()
		cfg := DefaultConfig()
		cfg.Topo = spec
		nw := NewNetwork(k, n, cfg)
		fp := DefaultFaultProfile(seed)
		fp.Drop = 0.08
		fp.Dup = 0.08
		fp.Corrupt = 0.04
		fp.Jitter = 30 * sim.Microsecond
		nw.EnableFaults(fp)
		got := make(map[[2]int][]int64)
		for r := 0; r < n; r++ {
			r := r
			nw.SetHandler(r, func(p *Packet) {
				key := [2]int{p.Src, p.Dst}
				got[key] = append(got[key], p.Arg[0])
			})
		}
		k.At(0, func() {
			for i := 0; i < perPair; i++ {
				for src := 0; src < n; src++ {
					for _, dst := range []int{(src + 1) % n, (src + n/2) % n} {
						if dst == src {
							continue
						}
						p := nw.AllocPacket()
						p.Src, p.Dst, p.Kind, p.Size = src, dst, KindUser, 2048
						p.Arg[0] = int64(i)
						nw.Send(p)
					}
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for src := 0; src < n; src++ {
			for _, dst := range []int{(src + 1) % n, (src + n/2) % n} {
				if dst == src {
					continue
				}
				seq := got[[2]int{src, dst}]
				if len(seq) != perPair {
					t.Fatalf("seed %d: pair %d->%d delivered %d of %d", seed, src, dst, len(seq), perPair)
				}
				for i, v := range seq {
					if v != int64(i) {
						t.Fatalf("seed %d: pair %d->%d delivery %d carries %d: FIFO or dedup broken", seed, src, dst, i, v)
					}
				}
			}
		}
		// The adversary must actually have fired for the property to mean
		// anything, and contention must actually have queued packets.
		if total(nw, cDrops) == 0 || total(nw, cDupDrops) == 0 || total(nw, cCorruptDrops) == 0 {
			t.Fatalf("seed %d: adversary inactive: %v", seed, nw.Counters.Snapshot())
		}
		if total(nw, topoQueued) == 0 {
			t.Fatalf("seed %d: no link queuing despite shared-spine contention", seed)
		}
	}
}

// TestTopoLossyDeterminism replays one lossy topology run twice and
// requires identical transcripts and congestion counters.
func TestTopoLossyDeterminism(t *testing.T) {
	run := func() string {
		spec := topo.Spec{Kind: topo.Torus, LinkCredits: 3}
		k := sim.NewKernel()
		cfg := DefaultConfig()
		cfg.Topo = spec
		nw := NewNetwork(k, 9, cfg)
		fp := DefaultFaultProfile(42)
		fp.Drop = 0.05
		fp.Jitter = 20 * sim.Microsecond
		nw.EnableFaults(fp)
		var log []string
		for r := 0; r < 9; r++ {
			nw.SetHandler(r, func(p *Packet) {
				log = append(log, fmt.Sprintf("%d:%d->%d#%d", k.Now(), p.Src, p.Dst, p.Arg[0]))
			})
		}
		k.At(0, func() {
			for i := 0; i < 6; i++ {
				for src := 0; src < 9; src++ {
					p := nw.AllocPacket()
					p.Src, p.Dst, p.Kind, p.Size = src, (src+4)%9, KindUser, 4096
					p.Arg[0] = int64(i)
					nw.Send(p)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v|%+v", log, nw.Counters.Snapshot())
	}
	if a, b := run(), run(); a != b {
		t.Fatal("lossy topology run is not deterministic")
	}
}

// TestShardedOneNodeTopology pins the lookahead of an empty topology: with
// every rank on one node a ring or torus has no links at all (a fat-tree
// keeps its leaf-spine ones), and the shard group must still get a positive
// horizon and run.
func TestShardedOneNodeTopology(t *testing.T) {
	for _, kind := range []topo.Kind{topo.Ring, topo.Torus, topo.FatTree} {
		const n = 3
		cfg := DefaultConfig()
		cfg.ProcsPerNode = n
		cfg.Topo = topo.Spec{Kind: kind}
		sh := sim.NewShards(make([]int, n))
		nw := NewNetworkShards(sh, n, cfg)
		if got := nw.Lookahead(); got <= 0 || got > cfg.Alpha {
			t.Fatalf("%v: one-node lookahead %d, want in (0, Alpha=%d]", kind, got, cfg.Alpha)
		}
		sh.SetLookahead(nw.Lookahead())
		delivered := 0
		for r := 0; r < n; r++ {
			nw.SetHandler(r, func(*Packet) { delivered++ })
		}
		for src := 0; src < n; src++ {
			sh.KernelFor(src).At(0, func() {
				p := nw.AllocPacketAt(src)
				p.Src, p.Dst, p.Kind, p.Size = src, (src+1)%n, KindUser, 128
				nw.Send(p)
			})
		}
		if err := sh.Run(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if delivered != n {
			t.Fatalf("%v: %d deliveries, want %d", kind, delivered, n)
		}
	}
}
