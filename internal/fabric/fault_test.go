package fabric

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// lossyWorld builds a 2-rank internode network with the given profile and a
// recording handler on rank 1 that appends each delivered packet's Arg[0].
func lossyWorld(fp FaultProfile) (*sim.Kernel, *Network, *[]int64) {
	k := sim.NewKernel()
	nw := NewNetwork(k, 2, DefaultConfig())
	nw.EnableFaults(fp)
	var got []int64
	nw.SetHandler(1, func(p *Packet) { got = append(got, p.Arg[0]) })
	nw.SetHandler(0, func(p *Packet) {})
	return k, nw, &got
}

// sendN pumps n sequenced pooled packets 0->1 and drains the kernel (which
// runs retransmissions to quiescence: the heap empties only once every
// packet is acknowledged or the link is declared dead).
func sendN(t *testing.T, k *sim.Kernel, nw *Network, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := nw.AllocPacket()
		p.Src, p.Dst, p.Kind, p.Size = 0, 1, KindUser, 256
		p.Arg[0] = int64(i)
		nw.Send(p)
		if i%8 == 7 { // interleave draining so the NIC queue stays shallow
			if err := k.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := k.Drain(); err != nil {
		t.Fatal(err)
	}
}

// checkExactlyOnceInOrder asserts the ARQ restored lossless FIFO semantics.
func checkExactlyOnceInOrder(t *testing.T, got []int64, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("delivered %d packets, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("delivery %d carries payload %d: order or dedup broken", i, v)
		}
	}
}

// checkCreditsBalanced asserts no flow-control credit leaked: with the
// kernel drained, nothing is outstanding toward any peer.
// total is counter id summed over every row of nw's set.
func total(nw *Network, id metrics.ID) (v int64) {
	for r := 0; r <= nw.Counters.Ranks; r++ {
		v += nw.Counters.Row(r).Get(id)
	}
	return v
}

// The topology engine's counters, as fabric reads them.
var topoQueued, topoDelivered = metrics.Lookup("topo.queued_ns"), metrics.Lookup("topo.delivered")

func checkCreditsBalanced(t *testing.T, nw *Network) {
	t.Helper()
	for src := 0; src < nw.N(); src++ {
		for dst := 0; dst < nw.N(); dst++ {
			if c := nw.nics[src].creditsToward(dst); c != 0 {
				t.Errorf("%d credits outstanding %d->%d after quiescence", c, src, dst)
			}
		}
	}
}

func TestReliableDeliveryUnderDrop(t *testing.T) {
	fp := DefaultFaultProfile(7)
	fp.Drop = 0.05
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 400)
	checkExactlyOnceInOrder(t, *got, 400)
	checkCreditsBalanced(t, nw)
	if st := nw.Counters.Row(0); st.Get(cDrops) == 0 || st.Get(cRetransmits) == 0 {
		t.Errorf("drop schedule produced no losses/retransmits: %v", nw.Counters.Snapshot(0))
	}
}

func TestDuplicateInjectionDeduped(t *testing.T) {
	fp := DefaultFaultProfile(11)
	fp.Dup = 0.25
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 400)
	checkExactlyOnceInOrder(t, *got, 400)
	if nw.Counters.Row(0).Get(cDupsSent) == 0 {
		t.Error("duplicator never fired at 25% probability over 400 packets")
	}
	if nw.Counters.Row(1).Get(cDupDrops) == 0 {
		t.Error("no duplicate was dropped at the receiver")
	}
}

func TestCorruptionRecovered(t *testing.T) {
	fp := DefaultFaultProfile(13)
	fp.Corrupt = 0.05
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 400)
	checkExactlyOnceInOrder(t, *got, 400)
	if nw.Counters.Row(1).Get(cCorruptDrops) == 0 {
		t.Error("corruption schedule produced no checksum drops")
	}
}

// A hold longer than the retransmission timeout under the ARQ: the held
// first copies and the spurious retransmits the timer adds all leave when the
// window lifts; delivery stays exactly-once in order, the extra copies are
// deduped at the receiver, and every credit comes back.
func TestFlapRecovery(t *testing.T) {
	fp := DefaultFaultProfile(17)
	fp.Drop = 0.01 // engages the ARQ
	fp.Flaps = []LinkFlap{{Src: 0, Dst: 1, From: 20 * sim.Microsecond, For: 40 * sim.Microsecond}}
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 400)
	checkExactlyOnceInOrder(t, *got, 400)
	checkCreditsBalanced(t, nw)
	st := nw.Counters.Row(0)
	if st.Get(cDelayed) == 0 {
		t.Fatal("flap window held no departures")
	}
	if st.Get(cRetransmits) == 0 || nw.Counters.Row(1).Get(cDupDrops) == 0 {
		t.Errorf("a 40us hold against a 16us timeout produced no deduped spurious retransmits: tx %v rx %v", nw.Counters.Snapshot(0), nw.Counters.Snapshot(1))
	}
}

func TestCombinedAdversary(t *testing.T) {
	fp := DefaultFaultProfile(23)
	fp.Drop = 0.02
	fp.Dup = 0.02
	fp.Corrupt = 0.01
	fp.Jitter = 3 * sim.Microsecond
	fp.Flaps = []LinkFlap{
		{Src: 0, Dst: 1, From: 50 * sim.Microsecond, For: 30 * sim.Microsecond},
		{Src: 1, Dst: 0, From: 200 * sim.Microsecond, For: 30 * sim.Microsecond},
	}
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 600)
	checkExactlyOnceInOrder(t, *got, 600)
	checkCreditsBalanced(t, nw)
}

// The same profile must produce the bit-identical fault schedule; a
// different seed must not.
func TestFaultProfileDeterminism(t *testing.T) {
	run := func(seed uint64) (string, string) {
		fp := DefaultFaultProfile(seed)
		fp.Drop = 0.03
		fp.Dup = 0.02
		fp.Jitter = 2 * sim.Microsecond
		k, nw, got := lossyWorld(fp)
		sendN(t, k, nw, 300)
		checkExactlyOnceInOrder(t, *got, 300)
		return nw.Counters.Snapshot(0), nw.Counters.Snapshot(1)
	}
	a0, a1 := run(42)
	b0, b1 := run(42)
	if a0 != b0 || a1 != b1 {
		t.Fatalf("same seed, different schedules:\n%+v %+v\nvs\n%+v %+v", a0, a1, b0, b1)
	}
	c0, _ := run(43)
	if a0 == c0 {
		t.Error("different seeds produced identical injector statistics (suspicious)")
	}
}

// A dead rank must be declared unreachable DetectDelay after its death — to
// every survivor — with every flow-control credit the lost packets held
// reconciled back to the pool.
func TestUnreachableDeclaration(t *testing.T) {
	fp := DefaultFaultProfile(29)
	fp.Drop = 0.01 // engages the ARQ: the declaration tears its streams down
	fp.Deaths = []RankDeath{{Rank: 1, At: 0}}
	fp.DetectDelay = 100 * sim.Microsecond
	k := sim.NewKernel()
	nw := NewNetwork(k, 3, DefaultConfig())
	nw.EnableFaults(fp)
	nw.SetHandler(1, func(p *Packet) {})
	healthy := 0
	nw.SetHandler(2, func(p *Packet) { healthy++ })
	var declared []int
	nw.SetUnreachableHandler(func(local, peer int) { declared = append(declared, local, peer) })
	for i := 0; i < 10; i++ {
		p := nw.AllocPacket()
		p.Src, p.Dst, p.Kind, p.Size = 0, 1, KindUser, 64
		nw.Send(p)
	}
	// Traffic to a healthy peer keeps flowing alongside.
	for i := 0; i < 10; i++ {
		p := nw.AllocPacket()
		p.Src, p.Dst, p.Kind, p.Size = 0, 2, KindUser, 64
		nw.Send(p)
	}
	if err := k.Drain(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(declared) != "[0 1 2 1]" {
		t.Fatalf("unreachable declarations = %v, want [0 1 2 1]", declared)
	}
	if k.Now() < 100*sim.Microsecond || nw.Counters.Row(0).Get(cRetransmits) == 0 {
		t.Errorf("stream to the dead peer did not retry until the declaration: t=%d %v", k.Now(), nw.Counters.Snapshot(0))
	}
	if !nw.PeerUnreachable(0, 1) {
		t.Error("PeerUnreachable(0,1) = false after declaration")
	}
	if nw.PeerUnreachable(0, 2) {
		t.Error("healthy peer 2 reported unreachable")
	}
	if c := nw.nics[0].creditsToward(1); c != 0 {
		t.Errorf("credits toward dead peer not reconciled: %d outstanding", c)
	}
	if healthy != 10 {
		t.Errorf("healthy peer received %d/10 packets alongside the dead link", healthy)
	}
}

// A whole-rank stall — a window on each link of the rank — delays traffic
// for many timeouts, but everything recovers once it lifts: exactly-once, in
// order, the spurious retransmits deduped, credits balanced.
func TestRankStallRecovers(t *testing.T) {
	fp := DefaultFaultProfile(31)
	fp.Dup = 0.01 // engages the ARQ
	fp.Flaps = []LinkFlap{
		{Src: 0, Dst: 1, From: 0, For: 200 * sim.Microsecond},
		{Src: 1, Dst: 0, From: 0, For: 200 * sim.Microsecond},
	}
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 50)
	checkExactlyOnceInOrder(t, *got, 50)
	checkCreditsBalanced(t, nw)
	if nw.Counters.Row(0).Get(cRetransmits) == 0 || nw.Counters.Row(1).Get(cDupDrops) == 0 {
		t.Errorf("stall window forced no deduped retransmissions: tx %v rx %v", nw.Counters.Snapshot(0), nw.Counters.Snapshot(1))
	}
	if k.Now() < 200*sim.Microsecond {
		t.Errorf("recovered at t=%d, before the stall lifted", k.Now())
	}
}

// Diag must expose stream state and pending retransmit timers so
// watchdog reports can tell fault stalls from protocol deadlocks.
func TestFaultDiagReportsLinks(t *testing.T) {
	fp := DefaultFaultProfile(37)
	fp.Drop = 0.01
	fp.Deaths = []RankDeath{{Rank: 1, At: 30 * sim.Microsecond}}
	k, nw, _ := lossyWorld(fp)
	for _, at := range []sim.Time{0, 40 * sim.Microsecond} {
		k.At(at, func() {
			p := nw.AllocPacket()
			p.Src, p.Dst, p.Kind, p.Size = 0, 1, KindUser, 64
			nw.Send(p)
		})
	}
	var diag, peerDiag string
	k.At(45*sim.Microsecond, func() { diag, peerDiag = nw.Diag(0), nw.Diag(1) })
	if err := k.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"link 0->1 rail 0: nextSeq=2 unacked=1", "rto@t=", "rank 1 DEAD since t=30000 (undetected", "counters: fabric."} {
		if !strings.Contains(diag, want) {
			t.Errorf("diag lacks %q:\n%s", want, diag)
		}
	}
	if !strings.Contains(peerDiag, "link 0->1 rail 0: expect=1") {
		t.Errorf("receiver side lacks its stream half:\n%s", peerDiag)
	}
}

// Without fault injection, Diag and the fabric counters are inert.
func TestFaultDiagDisabled(t *testing.T) {
	k := sim.NewKernel()
	nw := NewNetwork(k, 2, DefaultConfig())
	if d := nw.Diag(0); d != "" {
		t.Errorf("diag on a lossless network: %q", d)
	}
	if s := nw.Counters.Snapshot(); s != "" {
		t.Errorf("counters on a lossless network: %v", s)
	}
}

// Satellite: the injector is compiled into the NIC pipeline unconditionally;
// disabled (the default) it must cost nothing — delivery timing
// (TestPacketDeliveryTiming), allocation budgets (alloc_test.go) and the
// fabric.packet_ns driver of benchmarks/ all exercise that configuration.
// Enabled with all-zero rates, no ARQ is built, nothing is injected, and the
// packet path stays allocation-free.
func TestZeroRateProfileLossless(t *testing.T) {
	k, nw, got := lossyWorld(DefaultFaultProfile(41)) // every rate zero
	sendN(t, k, nw, 200)
	checkExactlyOnceInOrder(t, *got, 200)
	if st := nw.Counters.Snapshot(); st != "" {
		t.Errorf("zero-rate profile injected faults or engaged the ARQ: %v", st)
	}
	if allocs := testing.AllocsPerRun(200, func() { pumpPooled(t, k, nw) }); allocs != 0 {
		t.Errorf("zero-rate profile: %.1f allocs/packet, want 0", allocs)
	}
}

// Receive-side validation: a mangled packet must raise a contextual fabric
// error instead of an unattributable panic in the upper layers.
func TestReceiveValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(p *Packet)
		want string
	}{
		{"bad-kind", func(p *Packet) { p.Kind = kindCount + 3 }, "unknown packet kind"},
		{"negative-size", func(p *Packet) { p.Size = -5 }, "negative size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			nw := NewNetwork(k, 2, DefaultConfig())
			nw.SetHandler(1, func(p *Packet) {})
			p := nw.AllocPacket()
			p.Src, p.Dst, p.Kind, p.Size = 0, 1, KindUser, 64
			nw.Send(p)
			tc.mut(p) // corrupt the frame while it is in flight
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("mangled packet delivered without error")
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "fabric:") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q lacks fabric context %q", msg, tc.want)
				}
			}()
			k.Drain()
		})
	}
}

// Send-side validation keeps rejecting bad endpoints with context.
func TestSendValidation(t *testing.T) {
	k := sim.NewKernel()
	nw := NewNetwork(k, 2, DefaultConfig())
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "out of range") {
			t.Fatalf("bad destination not rejected: %v", r)
		}
	}()
	p := nw.AllocPacket()
	p.Src, p.Dst, p.Kind, p.Size = 0, 9, KindUser, 64
	nw.Send(p)
}
