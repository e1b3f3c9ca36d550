package fabric

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// railCfg is the testNet calibration with a configurable channel count.
func railCfg(channels, credits int) Config {
	return Config{
		ProcsPerNode:    1,
		Alpha:           10 * sim.Microsecond,
		BytesPerUs:      1000,
		AlphaIntra:      1 * sim.Microsecond,
		BytesPerUsIntra: 10000,
		CreditsPerPeer:  credits,
		AckLatency:      5 * sim.Microsecond,
		FifoCapacity:    8,
		Channels:        channels,
	}
}

func railNet(n, channels, credits int) (*sim.Kernel, *Network) {
	k := sim.NewKernel()
	return k, NewNetwork(k, n, railCfg(channels, credits))
}

// TestChannelsValidation pins the Config.Validate rejections the multi-rail
// model introduces: non-positive channel counts, rank×rail virtual-port
// budgets overflowing the 18-bit packing, and multi-rail over a modeled
// topology.
func TestChannelsValidation(t *testing.T) {
	base := DefaultConfig()

	for _, ch := range []int{0, -2} {
		cfg := base
		cfg.Channels = ch
		err := cfg.Validate(4)
		if err == nil || !strings.Contains(err.Error(), "Channels") {
			t.Errorf("Channels=%d: error %v, want a Channels rejection", ch, err)
		}
	}

	cfg := base
	cfg.Channels = 2 // 3 rails
	over := MaxRanks/cfg.Rails() + 1
	err := cfg.Validate(over)
	if err == nil || !strings.Contains(err.Error(), "rails") {
		t.Errorf("n=%d rails=%d: error %v, want a virtual-port overflow rejection", over, cfg.Rails(), err)
	}
	if got := cfg.Validate(MaxRanks / cfg.Rails()); got != nil {
		t.Errorf("n=%d rails=%d rejected: %v", MaxRanks/cfg.Rails(), cfg.Rails(), got)
	}

	cfg = base
	cfg.Channels = 2
	cfg.Topo = topo.Spec{Kind: topo.FatTree, HostsPerLeaf: 4, Spines: 2}
	if err := cfg.Validate(8); err == nil || !strings.Contains(err.Error(), "topology") {
		t.Errorf("multi-rail + fat-tree: error %v, want a topology rejection", err)
	}

	if err := base.Validate(8); err != nil {
		t.Errorf("DefaultConfig rejected: %v", err)
	}
}

// TestRailsCount pins the Channels -> rail mapping: 1 channel is the classic
// single shared rail; C > 1 adds the dedicated control rail.
func TestRailsCount(t *testing.T) {
	cfg := DefaultConfig()
	for _, c := range []struct{ channels, rails int }{{1, 1}, {2, 3}, {4, 5}} {
		cfg.Channels = c.channels
		if got := cfg.Rails(); got != c.rails {
			t.Errorf("Channels=%d: Rails()=%d, want %d", c.channels, got, c.rails)
		}
	}
	_, nw := railNet(2, 4, 0)
	if got := len(nw.nics[0].rails); got != 5 {
		t.Errorf("NIC built %d rails for Channels=4, want 5", got)
	}
}

// TestControlRailImmuneToDataQueue is the dedicated-control-rail headline:
// an 8-byte done packet posted behind a 1 MB put must not wait for the data
// wire on a multi-rail NIC, while the classic NIC serializes them.
func TestControlRailImmuneToDataQueue(t *testing.T) {
	run := func(channels int) (dataAt, doneAt sim.Time) {
		k, nw := railNet(2, channels, 0)
		nw.SetHandler(0, func(p *Packet) {})
		nw.SetHandler(1, func(p *Packet) {
			if p.Kind == KindDone {
				doneAt = k.Now()
			} else {
				dataAt = k.Now()
			}
		})
		k.At(0, func() {
			nw.Send(&Packet{Src: 0, Dst: 1, Kind: KindPutData, Size: 1 << 20})
			nw.Send(&Packet{Src: 0, Dst: 1, Kind: KindDone, Size: 8})
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return dataAt, doneAt
	}

	serialData, serialDone := run(1)
	if serialDone <= serialData {
		t.Fatalf("classic NIC delivered done (%d) before data (%d): per-peer FIFO broken", serialDone, serialData)
	}
	railData, railDone := run(2)
	cfg := railCfg(2, 0)
	// Done on the control rail: 8 bytes wire + alpha, no data queueing.
	if want := cfg.Latency(8); railDone != want {
		t.Errorf("multi-rail done delivered at %dns, want %dns (control rail, no data queueing)", railDone, want)
	}
	if railDone >= railData {
		t.Errorf("multi-rail done (%d) did not beat the 1MB data (%d)", railDone, railData)
	}
	if railDone >= serialDone {
		t.Errorf("control rail gave no win: %dns vs serial %dns", railDone, serialDone)
	}
}

// TestStripedBandwidthWin pins the deterministic chunk-striping of large
// transfers: with C data rails the 1 MB put's wire time divides by C, the
// delivery instant is exact, and OnTxDone fires when the last chunk leaves
// its wire.
func TestStripedBandwidthWin(t *testing.T) {
	const size = 1 << 20
	run := func(channels int) (txAt, rxAt sim.Time) {
		k, nw := railNet(2, channels, 0)
		nw.SetHandler(0, func(p *Packet) {})
		nw.SetHandler(1, func(p *Packet) { rxAt = k.Now() })
		k.At(0, func() {
			nw.Send(&Packet{Src: 0, Dst: 1, Kind: KindPutData, Size: size,
				OnTxDone: func(*Packet) { txAt = k.Now() }})
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return txAt, rxAt
	}
	for _, c := range []struct {
		channels  int
		dataRails int64
	}{{1, 1}, {2, 2}, {4, 4}} {
		cfg := railCfg(c.channels, 0)
		tx, rx := run(c.channels)
		wantTx := cfg.WireTime(size / c.dataRails)
		if tx != wantTx {
			t.Errorf("Channels=%d: OnTxDone at %dns, want %dns", c.channels, tx, wantTx)
		}
		if rx != wantTx+cfg.Alpha {
			t.Errorf("Channels=%d: delivered at %dns, want %dns", c.channels, rx, wantTx+cfg.Alpha)
		}
	}
}

// TestStripingDeterminism replays a mixed workload on a 4-channel NIC twice
// and requires identical transcripts — chunk assignment must be a pure
// function of the packet, never of allocator or map state.
func TestStripingDeterminism(t *testing.T) {
	run := func() []sim.Time {
		k, nw := railNet(4, 4, 2)
		var log []sim.Time
		for r := 0; r < 4; r++ {
			nw.SetHandler(r, func(p *Packet) { log = append(log, k.Now()) })
		}
		k.At(0, func() {
			for i := 0; i < 3; i++ {
				for dst := 1; dst < 4; dst++ {
					nw.Send(&Packet{Src: 0, Dst: dst, Kind: KindPutData, Size: 1 << 18})
					nw.Send(&Packet{Src: 0, Dst: dst, Kind: KindDone, Size: 8})
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 18 {
		t.Fatalf("delivery counts %d/%d, want 18", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at delivery %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRailClassification pins the data/control split and the per-peer
// affinity: small data rides its affinity data rail whole and protocol
// packets ride rail 0, as the delivered packets' Rail shows.
func TestRailClassification(t *testing.T) {
	k, nw := railNet(3, 2, 0) // rails: 0 control, 1-2 data
	rails := make(map[Kind]uint8)
	for r := 0; r < 3; r++ {
		nw.SetHandler(r, func(p *Packet) { rails[p.Kind] = p.Rail })
	}
	k.At(0, func() {
		nw.Send(&Packet{Src: 0, Dst: 1, Kind: KindPutData, Size: 4096}) // affinity rail 1+1%2 = 2
		nw.Send(&Packet{Src: 0, Dst: 2, Kind: KindEager, Size: 4096})   // affinity rail 1+2%2 = 1
		nw.Send(&Packet{Src: 0, Dst: 1, Kind: KindSignal, Size: 16})    // control
		nw.Send(&Packet{Src: 0, Dst: 2, Kind: KindLockReq, Size: 8})    // control
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[Kind]uint8{KindPutData: 2, KindEager: 1, KindSignal: 0, KindLockReq: 0}
	if len(rails) != len(want) {
		t.Fatalf("delivered kinds %v, want %v", rails, want)
	}
	for kind, rail := range want {
		if rails[kind] != rail {
			t.Errorf("kind %d delivered on rail %d, want %d", kind, rails[kind], rail)
		}
	}
}

// TestPerRailARQUnderFaults drives a lossy multi-rail fabric and checks the
// per-(link, rail) go-back-N spaces: every class of traffic must arrive
// exactly once, in order within its rail, with the adversary provably
// active. Cross-rail order is not part of the contract — control and data
// sequences are checked independently.
func TestPerRailARQUnderFaults(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		k := sim.NewKernel()
		cfg := DefaultConfig()
		cfg.Channels = 2
		nw := NewNetwork(k, 3, cfg)
		fp := DefaultFaultProfile(seed)
		fp.Drop = 0.1
		fp.Dup = 0.1
		fp.Corrupt = 0.05
		fp.Jitter = 25 * sim.Microsecond
		nw.EnableFaults(fp)
		type key struct {
			src  int
			data bool
		}
		got := make(map[key][]int64)
		for r := 0; r < 3; r++ {
			nw.SetHandler(r, func(p *Packet) {
				k := key{p.Src, dataRail(p.Kind)}
				got[k] = append(got[k], p.Arg[0])
			})
		}
		const perClass = 10
		k.At(0, func() {
			for i := 0; i < perClass; i++ {
				for src := 0; src < 3; src++ {
					dst := (src + 1) % 3
					d := nw.AllocPacket()
					d.Src, d.Dst, d.Kind, d.Size = src, dst, KindPutData, 2048
					d.Arg[0] = int64(i)
					nw.Send(d)
					c := nw.AllocPacket()
					c.Src, c.Dst, c.Kind, c.Size = src, dst, KindDone, 8
					c.Arg[0] = int64(i)
					nw.Send(c)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for src := 0; src < 3; src++ {
			for _, data := range []bool{false, true} {
				seq := got[key{src, data}]
				if len(seq) != perClass {
					t.Fatalf("seed %d: src %d data=%t delivered %d of %d", seed, src, data, len(seq), perClass)
				}
				for i, v := range seq {
					if v != int64(i) {
						t.Fatalf("seed %d: src %d data=%t delivery %d carries %d: per-rail FIFO broken", seed, src, data, i, v)
					}
				}
			}
		}
		var rel RelStats
		for r := 0; r < 3; r++ {
			st := nw.RelStats(r)
			rel.Drops += st.Drops
			rel.DupDrops += st.DupDrops
			rel.Retransmits += st.Retransmits
		}
		if rel.Drops == 0 || rel.Retransmits == 0 {
			t.Fatalf("seed %d: adversary inactive: %+v", seed, rel)
		}
	}
}

// TestMultiRailCreditsPerRail pins that flow-control windows are per rail:
// one credit per peer still lets a control packet through while the data
// rail's credit is consumed.
func TestMultiRailCreditsPerRail(t *testing.T) {
	k, nw := railNet(2, 2, 1)
	var doneAt sim.Time
	var putAt []sim.Time
	nw.SetHandler(0, func(p *Packet) {})
	nw.SetHandler(1, func(p *Packet) {
		if p.Kind == KindDone {
			doneAt = k.Now()
		} else {
			putAt = append(putAt, k.Now())
		}
	})
	k.At(0, func() {
		// Two small puts: the second stalls on the data rail's single credit.
		nw.Send(&Packet{Src: 0, Dst: 1, Kind: KindPutData, Size: 1000})
		nw.Send(&Packet{Src: 0, Dst: 1, Kind: KindPutData, Size: 1000})
		// The done must not inherit the data rail's stall.
		nw.Send(&Packet{Src: 0, Dst: 1, Kind: KindDone, Size: 8})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Control rail idle + credit available: 8B wire + alpha.
	cfg := railCfg(2, 1)
	if want := cfg.Latency(8); doneAt != want {
		t.Fatalf("done delivered at %dns, want %dns (control rail has its own credit window)", doneAt, want)
	}
	// The second put stalls on the data rail until the first one's ACK
	// returns the credit (wire + alpha + ACK latency), then crosses.
	if want := cfg.WireTime(1000) + cfg.Alpha + cfg.AckLatency + cfg.Latency(1000); len(putAt) != 2 || putAt[1] != want {
		t.Fatalf("puts delivered at %v, want the second at %dns (credit stall on the data rail)", putAt, want)
	}
}
