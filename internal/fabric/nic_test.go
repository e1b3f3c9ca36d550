package fabric

import (
	"testing"

	"repro/internal/sim"
)

// testNet builds a 2-node network with simple round numbers: alpha 10us,
// 1000 bytes/us, no registration cache.
func testNet(n int, credits int) (*sim.Kernel, *Network) {
	k := sim.NewKernel()
	cfg := Config{
		ProcsPerNode:    1,
		Alpha:           10 * sim.Microsecond,
		BytesPerUs:      1000,
		AlphaIntra:      1 * sim.Microsecond,
		BytesPerUsIntra: 10000,
		CreditsPerPeer:  credits,
		AckLatency:      5 * sim.Microsecond,
		FifoCapacity:    8,
		Channels:        1,
	}
	return k, NewNetwork(k, n, cfg)
}

// creditsToward reports the outstanding unacknowledged packets toward dst
// across all rails without materializing sparse state. Crossbar credits come
// back lazily, so the rails reclaim what is due by now first.
func (n *NIC) creditsToward(dst int) int {
	total := 0
	for i := range n.rails {
		n.rails[i].reclaim(n.k.Now(), n.k.Seq())
		total += n.rails[i].peers.Peek(dst).credits
	}
	return total
}

func TestLatencyModel(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.Latency(0); got != cfg.Alpha {
		t.Fatalf("zero-size latency %d, want alpha %d", got, cfg.Alpha)
	}
	oneMB := cfg.Latency(1 << 20)
	if oneMB < 330*sim.Microsecond || oneMB > 350*sim.Microsecond {
		t.Fatalf("1MB latency %d us, want ~340 us (calibration)", oneMB/sim.Microsecond)
	}
}

func TestPacketDeliveryTiming(t *testing.T) {
	k, nw := testNet(2, 0)
	var deliveredAt sim.Time
	nw.SetHandler(1, func(p *Packet) { deliveredAt = k.Now() })
	nw.SetHandler(0, func(p *Packet) {})
	k.At(0, func() {
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 5000}) // 5us wire + 10us alpha
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 15 * sim.Microsecond; deliveredAt != want {
		t.Fatalf("delivered at %d, want %d", deliveredAt, want)
	}
}

func TestOnTxDoneFiresAtWireEnd(t *testing.T) {
	k, nw := testNet(2, 0)
	var txAt, rxAt sim.Time
	nw.SetHandler(1, func(p *Packet) { rxAt = k.Now() })
	nw.SetHandler(0, func(p *Packet) {})
	k.At(0, func() {
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 5000, OnTxDone: func(*Packet) { txAt = k.Now() }})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if txAt != 5*sim.Microsecond {
		t.Fatalf("OnTxDone at %d, want wire end 5us", txAt)
	}
	if rxAt <= txAt {
		t.Fatal("delivery should follow local completion")
	}
}

func TestPerPeerOrdering(t *testing.T) {
	k, nw := testNet(2, 0)
	var order []int64
	nw.SetHandler(1, func(p *Packet) { order = append(order, p.Arg[0]) })
	nw.SetHandler(0, func(p *Packet) {})
	k.At(0, func() {
		// A large packet followed by small ones: all must arrive in order.
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 100000, Arg: [4]int64{1}})
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 8, Arg: [4]int64{2}})
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 8, Arg: [4]int64{3}})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("delivery order %v, want [1 2 3]", order)
	}
}

func TestInjectionPipelineSerializes(t *testing.T) {
	k, nw := testNet(3, 0)
	var at1, at2 sim.Time
	nw.SetHandler(1, func(p *Packet) { at1 = k.Now() })
	nw.SetHandler(2, func(p *Packet) { at2 = k.Now() })
	nw.SetHandler(0, func(p *Packet) {})
	k.At(0, func() {
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 10000}) // 10us wire
		nw.Send(&Packet{Src: 0, Dst: 2, Size: 10000}) // starts after the first
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 20*sim.Microsecond {
		t.Fatalf("first delivery at %d, want 20us", at1/sim.Microsecond)
	}
	if at2 != 30*sim.Microsecond {
		t.Fatalf("second delivery at %d us, want 30us (serialized injection)", at2/sim.Microsecond)
	}
}

func TestCreditStallAndSkip(t *testing.T) {
	// 1 credit per peer: the second packet to rank 1 must wait for the
	// first ACK, but a packet to rank 2 skips ahead.
	k, nw := testNet(3, 1)
	var to1 []sim.Time
	var to2 sim.Time
	nw.SetHandler(1, func(p *Packet) { to1 = append(to1, k.Now()) })
	nw.SetHandler(2, func(p *Packet) { to2 = k.Now() })
	nw.SetHandler(0, func(p *Packet) {})
	k.At(0, func() {
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 1000}) // 1us wire
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 1000}) // stalled on credit
		nw.Send(&Packet{Src: 0, Dst: 2, Size: 1000}) // different peer: skips
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// First to 1: wire 1 + alpha 10 = 11us. Packet to 2 transmits from 1us
	// to 2us, delivered at 12us. Credit for peer 1 returns at
	// 1 (wire) + 10 (alpha) + 5 (ack) = 16us; second delivery 17+10us.
	if to2 != 12*sim.Microsecond {
		t.Fatalf("peer-2 delivery at %dus, want 12us (skip-ahead)", to2/sim.Microsecond)
	}
	if len(to1) != 2 {
		t.Fatalf("rank 1 received %d packets, want 2", len(to1))
	}
	if to1[1] != 27*sim.Microsecond {
		t.Fatalf("stalled packet delivered at %dus, want 27us (credit stall)", to1[1]/sim.Microsecond)
	}
}

func TestIntranodePathBypassesPipeline(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.ProcsPerNode = 2 // ranks 0 and 1 share a node
	nw := NewNetwork(k, 2, cfg)
	var at sim.Time
	nw.SetHandler(1, func(p *Packet) { at = k.Now() })
	nw.SetHandler(0, func(p *Packet) {})
	k.At(0, func() { nw.Send(&Packet{Src: 0, Dst: 1, Size: 0}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != cfg.AlphaIntra {
		t.Fatalf("intranode delivery at %d, want alphaIntra %d (no NIC pipeline)", at, cfg.AlphaIntra)
	}
}

func TestNodeMapping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProcsPerNode = 4
	if cfg.NodeOf(0) != 0 || cfg.NodeOf(3) != 0 || cfg.NodeOf(4) != 1 {
		t.Fatal("node mapping wrong")
	}
	if !cfg.SameNode(0, 3) || cfg.SameNode(3, 4) {
		t.Fatal("same-node detection wrong")
	}
}

// TestDeliveryStats checks what the delivery path hands its handler: every
// packet exactly once, with its size intact.
func TestDeliveryStats(t *testing.T) {
	k, nw := testNet(2, 0)
	var delivered, bytes int64
	nw.SetHandler(1, func(p *Packet) { delivered, bytes = delivered+1, bytes+p.Size })
	nw.SetHandler(0, func(p *Packet) {})
	k.At(0, func() {
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 100})
		nw.Send(&Packet{Src: 0, Dst: 1, Size: 200})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 || bytes != 300 {
		t.Fatalf("handler saw %d packets / %d bytes, want 2/300", delivered, bytes)
	}
}

func TestFifoAccessorRequiresSameNode(t *testing.T) {
	_, nw := testNet(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-node FIFO access should panic")
		}
	}()
	nw.Fifo(0, 1)
}
