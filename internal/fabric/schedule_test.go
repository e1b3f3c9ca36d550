package fabric

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// schedDelivery is one observed arrival: receiver-side timestamp plus the
// packet's identity, enough to pin both ordering and timing bit for bit.
type schedDelivery struct {
	At       sim.Time
	Src, Dst int
	Payload  int64
}

// runFaultWorld drives one fixed traffic pattern (every rank streams
// packets to its two successors on a staggered clock) through an adversary,
// either on the serial kernel (shards == 0) or across a shard group, and
// returns the per-rank delivery logs plus unreachable declarations in a
// deterministic flat order.
func runFaultWorld(t *testing.T, cfg Config, fp FaultProfile, shards int) ([]schedDelivery, []string, *Network) {
	t.Helper()
	const n = 4
	var nw *Network
	var sh *sim.Shards
	var serial *sim.Kernel
	if shards == 0 {
		serial = sim.NewKernel()
		nw = NewNetwork(serial, n, cfg)
	} else {
		assign := make([]int, n)
		for r := range assign {
			assign[r] = r % shards
		}
		sh = sim.NewShards(assign)
		nw = NewNetworkShards(sh, n, cfg)
		sh.SetLookahead(nw.Lookahead())
	}
	nw.EnableFaults(fp)
	got := make([][]schedDelivery, n)
	decl := make([][]string, n)
	for r := 0; r < n; r++ {
		r := r
		nw.SetHandler(r, func(p *Packet) {
			got[r] = append(got[r], schedDelivery{nw.nics[r].k.Now(), p.Src, p.Dst, p.Arg[0]})
		})
	}
	nw.SetUnreachableHandler(func(local, peer int) {
		decl[local] = append(decl[local],
			fmt.Sprintf("t=%d %d->%d", nw.nics[local].k.Now(), local, peer))
	})
	for src := 0; src < n; src++ {
		src := src
		k := nw.nics[src].k
		for i := 0; i < 40; i++ {
			i := i
			dst := (src + 1 + i%2) % n
			k.At(sim.Time(i)*500*sim.Nanosecond, func() {
				p := nw.AllocPacketAt(src)
				p.Src, p.Dst, p.Kind, p.Size = src, dst, KindUser, 128
				p.Arg[0] = int64(src*1000 + i)
				nw.Send(p)
			})
		}
	}
	if shards == 0 {
		if err := serial.Drain(); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := sh.Run(); err != nil {
			t.Fatal(err)
		}
	}
	var flat []schedDelivery
	for r := 0; r < n; r++ {
		flat = append(flat, got[r]...)
	}
	var flatDecl []string
	for r := 0; r < n; r++ {
		flatDecl = append(flatDecl, decl[r]...)
	}
	return flat, flatDecl, nw
}

// kvSchedule is the ARQ-less adversary the tests share: one mid-run death,
// one flap window, deterministic jitter.
func kvSchedule() FaultProfile {
	return FaultProfile{
		Seed:   99,
		Deaths: []RankDeath{{Rank: 2, At: 8 * sim.Microsecond}},
		Flaps:  []LinkFlap{{Src: 0, Dst: 1, From: 3 * sim.Microsecond, For: 5 * sim.Microsecond}},
		Jitter: 700 * sim.Nanosecond,
	}
}

func TestScheduledDeathDropsAndDetects(t *testing.T) {
	fs := FaultProfile{Deaths: []RankDeath{{Rank: 2, At: 8 * sim.Microsecond}}}
	flat, decl, nw := runFaultWorld(t, DefaultConfig(), fs, 0)
	for _, d := range flat {
		if d.Dst == 2 && d.At >= 8*sim.Microsecond {
			t.Fatalf("delivery to dead rank 2 at t=%d", d.At)
		}
	}
	if nw.Counters.Row(2).Get(cRxDrops) == 0 {
		t.Fatal("no arrival was absorbed at the dead rank")
	}
	// Rank 2's own sends after death die at the source.
	if nw.Counters.Row(2).Get(cTxDrops) == 0 {
		t.Fatal("dead rank's departures were not dropped at source")
	}
	// Every survivor hears exactly one declaration, at death + detect.
	detect := 4 * (nw.Cfg.Alpha + nw.Cfg.AckLatency)
	want := fmt.Sprintf("t=%d", 8*sim.Microsecond+detect)
	if len(decl) != 3 {
		t.Fatalf("unreachable declarations = %v, want one per survivor", decl)
	}
	for _, d := range decl {
		if !strings.HasPrefix(d, want) || !strings.HasSuffix(d, "->2") {
			t.Fatalf("declaration %q, want prefix %q targeting rank 2", d, want)
		}
	}
	if !nw.PeerUnreachable(0, 2) {
		t.Error("PeerUnreachable(0,2) = false after the detection window")
	}
	if nw.PeerUnreachable(0, 1) {
		t.Error("healthy rank 1 reported unreachable")
	}
}

func TestScheduledFlapHoldsInOrder(t *testing.T) {
	fs := FaultProfile{Flaps: []LinkFlap{{Src: 0, Dst: 1, From: 0, For: 10 * sim.Microsecond}}}
	flat, _, nw := runFaultWorld(t, DefaultConfig(), fs, 0)
	if nw.Counters.Row(0).Get(cDelayed) == 0 {
		t.Fatal("flap window held no departures")
	}
	lift := 10*sim.Microsecond + nw.Cfg.Alpha
	var last int64 = -1
	for _, d := range flat {
		if d.Src != 0 || d.Dst != 1 {
			continue
		}
		if d.At < lift {
			t.Fatalf("held packet arrived at t=%d, before lift+alpha=%d", d.At, lift)
		}
		if d.Payload <= last {
			t.Fatalf("flap release broke per-link FIFO: %d after %d", d.Payload, last)
		}
		last = d.Payload
	}
	if last < 0 {
		t.Fatal("no 0->1 traffic observed")
	}
}

// Jitter must perturb arrivals without ever reordering a directed link, and
// the whole schedule must be a pure function of the FaultProfile.
func TestScheduledJitterDeterministicFIFO(t *testing.T) {
	fs := FaultProfile{Seed: 7, Jitter: 900 * sim.Nanosecond}
	a, _, _ := runFaultWorld(t, DefaultConfig(), fs, 0)
	b, _, _ := runFaultWorld(t, DefaultConfig(), fs, 0)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same schedule, different delivery logs")
	}
	last := map[[2]int]int64{}
	for _, d := range a {
		key := [2]int{d.Src, d.Dst}
		if prev, ok := last[key]; ok && d.Payload <= prev {
			t.Fatalf("jitter reordered link %d->%d: %d after %d", d.Src, d.Dst, d.Payload, prev)
		}
		last[key] = d.Payload
	}
	fs.Seed = 8
	c, _, _ := runFaultWorld(t, DefaultConfig(), fs, 0)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different jitter seeds produced identical delivery logs (suspicious)")
	}
}

// checkShardParity runs fp over cfg serially and at each shard count and
// requires bit-identical per-rank observables: delivery order and times,
// declarations, adversary/ARQ counters and final (balanced) credits.
func checkShardParity(t *testing.T, cfg Config, fp FaultProfile, shardCounts ...int) *Network {
	t.Helper()
	flat0, decl0, nw0 := runFaultWorld(t, cfg, fp, 0)
	checkCreditsBalanced(t, nw0)
	for _, shards := range shardCounts {
		flat, decl, nw := runFaultWorld(t, cfg, fp, shards)
		if fmt.Sprint(flat) != fmt.Sprint(flat0) {
			t.Fatalf("-shards %d delivery log diverges from serial:\n%v\nvs\n%v", shards, flat, flat0)
		}
		if fmt.Sprint(decl) != fmt.Sprint(decl0) {
			t.Fatalf("-shards %d declarations diverge: %v vs %v", shards, decl, decl0)
		}
		for r := 0; r < 4; r++ {
			if a, b := nw.Counters.Snapshot(r), nw0.Counters.Snapshot(r); a != b {
				t.Fatalf("-shards %d counters for rank %d diverge: %s vs %s", shards, r, a, b)
			}
		}
		checkCreditsBalanced(t, nw)
	}
	return nw0
}

// fatTree is the modeled topology the composition tests share: two leaves
// under one spine, so half the pairs contend for the spine links.
func fatTree() Config {
	cfg := DefaultConfig()
	cfg.Topo = topo.Spec{Kind: topo.FatTree, HostsPerLeaf: 2, Spines: 1, LinkCredits: 2}
	return cfg
}

// The tentpole property, ARQ-less half: death, flap and jitter yield
// bit-identical per-rank observables on the serial kernel and at any shard
// count.
func TestScheduleSerialShardedParity(t *testing.T) {
	checkShardParity(t, DefaultConfig(), kvSchedule(), 1, 2, 4)
}

// The tentpole property, ARQ half: message faults, jitter that reorders and
// a flap longer than the timeout, on the crossbar and through a fat-tree —
// the go-back-N layer restores exactly-once per-link FIFO and does so
// identically at every shard count.
func TestLossySerialShardedParity(t *testing.T) {
	fp := FaultProfile{
		Seed: 5, Drop: 0.05, Dup: 0.05, Corrupt: 0.03, Jitter: 3 * sim.Microsecond,
		Flaps: []LinkFlap{{Src: 0, Dst: 1, From: 3 * sim.Microsecond, For: 40 * sim.Microsecond}},
	}
	for name, cfg := range map[string]Config{"crossbar": DefaultConfig(), "fattree": fatTree()} {
		nw := checkShardParity(t, cfg, fp, 2, 4)
		for r := 0; r < 4; r++ {
			if st := nw.Counters.Row(r); st.Get(cAcked) != st.Get(cSent) || st.Get(cSent) != 40 {
				t.Errorf("%s: rank %d sent %d acked %d, want 40/40", name, r, st.Get(cSent), st.Get(cAcked))
			}
		}
		if total(nw, cDrops) == 0 || total(nw, cDupDrops) == 0 || total(nw, cCorruptDrops) == 0 ||
			total(nw, cGapDrops) == 0 || total(nw, cDelayed) == 0 {
			t.Errorf("%s: adversary inactive: %v", name, nw.Counters.Snapshot())
		}
	}
}

// A dedicated ACK is a packet on the wire: with AckLatency below the shard
// group's lookahead (here 0) it must still not land inside the safe horizon,
// or the sharded kernel would reject it and diverge from serial.
func TestLossyZeroAckLatencyShardsMatchSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AckLatency = 0
	checkShardParity(t, cfg, FaultProfile{Seed: 9, Drop: 0.05, Dup: 0.05, Jitter: sim.Microsecond}, 4)
}

// Faults compose with a modeled topology (this was an enable-time panic): a
// flap holds departures out of the topology until it lifts, in order, and a
// death absorbs what is mid-flight inside it — with and without the ARQ.
func TestTopoFlapHoldAndMidFlightDeath(t *testing.T) {
	const lift, death = 10 * sim.Microsecond, 14 * sim.Microsecond
	for _, drop := range []float64{0, 0.02} {
		fp := FaultProfile{
			Seed: 3, Drop: drop,
			Flaps:  []LinkFlap{{Src: 0, Dst: 1, From: 0, For: lift}},
			Deaths: []RankDeath{{Rank: 2, At: death}},
		}
		flat, decl, nw := runFaultWorld(t, fatTree(), fp, 0)
		var last int64 = -1
		for _, d := range flat {
			if d.Dst == 2 && d.At >= death {
				t.Fatalf("drop=%g: delivery to dead rank 2 at t=%d", drop, d.At)
			}
			if d.Src == 0 && d.Dst == 1 {
				if d.At < lift+nw.Cfg.Alpha || d.Payload <= last {
					t.Fatalf("drop=%g: held link delivered %d at t=%d after %d", drop, d.Payload, d.At, last)
				}
				last = d.Payload
			}
		}
		if last != 38 { // rank 0's even-numbered packets go to rank 1
			t.Errorf("drop=%g: held link's last delivery is %d, want 38", drop, last)
		}
		if held, absorbed := nw.Counters.Row(0).Get(cDelayed), nw.Counters.Row(2).Get(cRxDrops); held == 0 || absorbed == 0 || len(decl) != 3 {
			t.Errorf("drop=%g: held=%d absorbed=%d declarations=%v", drop, held, absorbed, decl)
		}
		checkCreditsBalanced(t, nw)
		checkShardParity(t, fatTree(), fp, 2)
	}
}

func TestScheduleDiag(t *testing.T) {
	_, _, nw := runFaultWorld(t, DefaultConfig(), kvSchedule(), 0)
	diag := nw.Diag(0)
	for _, want := range []string{"rank 2 DEAD since t=8000 (detected", "link 0->1 flap", "counters: fabric."} {
		if !strings.Contains(diag, want) {
			t.Errorf("diag lacks %q:\n%s", want, diag)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	fresh := func() *Network { return NewNetwork(sim.NewKernel(), 2, DefaultConfig()) }
	mustPanic("twice", func() {
		nw := fresh()
		nw.EnableFaults(FaultProfile{})
		nw.EnableFaults(FaultProfile{})
	})
	mustPanic("death out of range", func() {
		fresh().EnableFaults(FaultProfile{Deaths: []RankDeath{{Rank: 5, At: 0}}})
	})
	mustPanic("double death", func() {
		fresh().EnableFaults(FaultProfile{Deaths: []RankDeath{{Rank: 1, At: 0}, {Rank: 1, At: 5}}})
	})
	mustPanic("self flap", func() {
		fresh().EnableFaults(FaultProfile{Flaps: []LinkFlap{{Src: 1, Dst: 1, From: 0, For: 1}}})
	})
	mustPanic("empty flap window", func() {
		fresh().EnableFaults(FaultProfile{Flaps: []LinkFlap{{Src: 0, Dst: 1, From: 0, For: 0}}})
	})
}

// A zero-value profile must behave exactly like the lossless fabric.
func TestScheduleZeroValueLossless(t *testing.T) {
	flat, decl, nw := runFaultWorld(t, DefaultConfig(), FaultProfile{}, 0)
	if len(decl) != 0 {
		t.Fatalf("lossless schedule declared peers unreachable: %v", decl)
	}
	want := 4 * 40
	if len(flat) != want {
		t.Fatalf("delivered %d packets, want %d", len(flat), want)
	}
	for r := 0; r < 4; r++ {
		if s := nw.Counters.Snapshot(r); s != "" {
			t.Fatalf("rank %d injector activity on a lossless schedule: %v", r, s)
		}
	}
}
