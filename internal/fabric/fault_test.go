package fabric

import (
	"fmt"
	"strings"
	"testing"

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

func TestReliableDeliveryUnderDrop(t *testing.T) {
	fp := DefaultFaultProfile(7)
	fp.Drop = 0.05
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 400)
	checkExactlyOnceInOrder(t, *got, 400)
	st := nw.RelStats(0)
	if st.Drops == 0 || st.Retransmits == 0 {
		t.Errorf("drop schedule produced no losses/retransmits: %+v", st)
	}
}

func TestDuplicateInjectionDeduped(t *testing.T) {
	fp := DefaultFaultProfile(11)
	fp.Dup = 0.25
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 400)
	checkExactlyOnceInOrder(t, *got, 400)
	if nw.RelStats(0).DupsSent == 0 {
		t.Error("duplicator never fired at 25% probability over 400 packets")
	}
	if nw.RelStats(1).DupDrops == 0 {
		t.Error("no duplicate was dropped at the receiver")
	}
}

func TestCorruptionRecovered(t *testing.T) {
	fp := DefaultFaultProfile(13)
	fp.Corrupt = 0.05
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 400)
	checkExactlyOnceInOrder(t, *got, 400)
	if nw.RelStats(1).CorruptDrops == 0 {
		t.Error("corruption schedule produced no checksum drops")
	}
}

func TestFlapRecovery(t *testing.T) {
	fp := DefaultFaultProfile(17)
	fp.Flap = 0.01
	fp.FlapDown = 40 * sim.Microsecond
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 400)
	checkExactlyOnceInOrder(t, *got, 400)
	st := nw.RelStats(0)
	if st.Flaps == 0 {
		t.Fatal("flap schedule produced no down windows")
	}
	if st.FlapRecover == 0 {
		t.Error("no link recovered after a flap")
	}
}

func TestCombinedAdversary(t *testing.T) {
	fp := DefaultFaultProfile(23)
	fp.Drop = 0.02
	fp.Dup = 0.02
	fp.Corrupt = 0.01
	fp.JitterMax = 3 * sim.Microsecond
	fp.Flap = 0.002
	fp.FlapDown = 30 * sim.Microsecond
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 600)
	checkExactlyOnceInOrder(t, *got, 600)
}

// The same profile must produce the bit-identical fault schedule; a
// different seed must not.
func TestFaultScheduleDeterminism(t *testing.T) {
	run := func(seed uint64) (RelStats, RelStats) {
		fp := DefaultFaultProfile(seed)
		fp.Drop = 0.03
		fp.Dup = 0.02
		fp.JitterMax = 2 * sim.Microsecond
		k, nw, got := lossyWorld(fp)
		sendN(t, k, nw, 300)
		checkExactlyOnceInOrder(t, *got, 300)
		return nw.RelStats(0), nw.RelStats(1)
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

// A dead rank must be declared unreachable after MaxRetries, with every
// flow-control credit the lost packets held reconciled back to the pool.
func TestUnreachableDeclaration(t *testing.T) {
	fp := DefaultFaultProfile(29)
	fp.DeadRank = 1
	fp.MaxRetries = 3
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
	if len(declared) != 2 || declared[0] != 0 || declared[1] != 1 {
		t.Fatalf("unreachable declarations = %v, want [0 1]", declared)
	}
	if !nw.PeerUnreachable(0, 1) {
		t.Error("PeerUnreachable(0,1) = false after declaration")
	}
	if nw.PeerUnreachable(0, 2) {
		t.Error("healthy peer 2 reported unreachable")
	}
	if c := nw.NIC(0).CreditsToward(1); c != 0 {
		t.Errorf("credits toward dead peer not reconciled: %d outstanding", c)
	}
	if healthy != 10 {
		t.Errorf("healthy peer received %d/10 packets alongside the dead link", healthy)
	}
}

// A whole-rank stall window delays traffic but everything recovers once it
// lifts.
func TestRankStallRecovers(t *testing.T) {
	fp := DefaultFaultProfile(31)
	fp.StallRank = 1
	fp.StallFrom = 0
	fp.StallFor = 200 * sim.Microsecond
	k, nw, got := lossyWorld(fp)
	sendN(t, k, nw, 50)
	checkExactlyOnceInOrder(t, *got, 50)
	if nw.RelStats(0).Retransmits == 0 {
		t.Error("stall window forced no retransmissions")
	}
	if k.Now() < 200*sim.Microsecond {
		t.Errorf("recovered at t=%d, before the stall lifted", k.Now())
	}
}

// FaultDiag must expose link state and pending retransmit timers so
// watchdog reports can tell fault stalls from protocol deadlocks.
func TestFaultDiagReportsLinks(t *testing.T) {
	fp := DefaultFaultProfile(37)
	fp.DeadRank = 1
	fp.MaxRetries = 2
	k, nw, _ := lossyWorld(fp)
	p := nw.AllocPacket()
	p.Src, p.Dst, p.Kind, p.Size = 0, 1, KindUser, 64
	nw.Send(p)
	if err := k.Drain(); err != nil {
		t.Fatal(err)
	}
	diag := nw.FaultDiag(0)
	if !strings.Contains(diag, "link 0->1") {
		t.Errorf("diag lacks link state:\n%s", diag)
	}
	if !strings.Contains(diag, "DEAD") {
		t.Errorf("diag does not flag the dead peer:\n%s", diag)
	}
	if !strings.Contains(diag, "rel stats:") {
		t.Errorf("diag lacks the stats summary:\n%s", diag)
	}
	if nw.FaultDiag(1) == "" {
		t.Error("receiver side has link state but empty diag")
	}
}

// Without fault injection, FaultDiag and RelStats are inert.
func TestFaultDiagDisabled(t *testing.T) {
	k := sim.NewKernel()
	nw := NewNetwork(k, 2, DefaultConfig())
	if d := nw.FaultDiag(0); d != "" {
		t.Errorf("diag on a lossless network: %q", d)
	}
	if s := nw.RelStats(0); s != (RelStats{}) {
		t.Errorf("stats on a lossless network: %+v", s)
	}
}

// Satellite: the injector is compiled into the NIC pipeline unconditionally;
// disabled (the default) it must cost nothing — delivery timing
// (TestPacketDeliveryTiming), allocation budgets (alloc_test.go) and the
// fabric.packet_ns driver of benchmarks/ all exercise that configuration.
// Enabled with all-zero rates, the ARQ machinery engages but must inject
// nothing.
func TestZeroRateProfileLossless(t *testing.T) {
	k, nw, got := lossyWorld(DefaultFaultProfile(41)) // every rate zero
	sendN(t, k, nw, 200)
	checkExactlyOnceInOrder(t, *got, 200)
	st := nw.RelStats(0)
	if st.Drops != 0 || st.Retransmits != 0 || st.DupsSent != 0 || st.Corrupts != 0 {
		t.Errorf("zero-rate profile injected faults: %+v", st)
	}
	if st.Sent == 0 || st.Acked != st.Sent {
		t.Errorf("ARQ bookkeeping broken on the clean path: %+v", st)
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
