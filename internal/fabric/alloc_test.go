package fabric

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// Allocation budgets for the packet fast path: a pooled packet pumped
// through send, wire occupancy, delivery and credit return must cost zero
// allocations once the free-lists and the registration cache have warmed
// up. This pins down the NIC descriptor pool, the packet pool, the
// generation-stamped credit scan and the in-place RegCache LRU.

func pumpPooled(t *testing.T, k *sim.Kernel, nw *Network) {
	pumpKind(t, k, nw, KindPutData, 4096)
}

func pumpKind(t *testing.T, k *sim.Kernel, nw *Network, kind Kind, size int64) {
	p := nw.AllocPacket()
	p.Src, p.Dst, p.Kind, p.Size = 0, 1, kind, size
	p.Arg[3] = 1 // stable region key: hits the registration cache after warmup
	nw.Send(p)
	if err := k.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestPooledInternodeSendAllocs(t *testing.T) {
	k := sim.NewKernel()
	nw := NewNetwork(k, 2, DefaultConfig()) // ProcsPerNode 1: internode path
	nw.SetHandler(1, func(p *Packet) {})
	for i := 0; i < 64; i++ {
		pumpPooled(t, k, nw)
	}
	allocs := testing.AllocsPerRun(200, func() { pumpPooled(t, k, nw) })
	if allocs != 0 {
		t.Errorf("internode pooled send: %.1f allocs/packet, want 0", allocs)
	}
}

func TestPooledIntranodeSendAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProcsPerNode = 2 // ranks 0 and 1 share a node: shared-memory path
	k := sim.NewKernel()
	nw := NewNetwork(k, 2, cfg)
	nw.SetHandler(1, func(p *Packet) {})
	for i := 0; i < 64; i++ {
		pumpPooled(t, k, nw)
	}
	allocs := testing.AllocsPerRun(200, func() { pumpPooled(t, k, nw) })
	if allocs != 0 {
		t.Errorf("intranode pooled send: %.1f allocs/packet, want 0", allocs)
	}
}

// A 16-byte KindSignal write — the wire form of every grant and done on the
// counter-signal transport — down the dedicated control rail of a 2-channel
// NIC: rail selection, per-rail credits and per-rail ARQ state all sit in
// the measured path and none of them may touch the heap.
func TestPooledSignalRailSendAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 2
	k := sim.NewKernel()
	nw := NewNetwork(k, 2, cfg)
	rail := -1
	nw.SetHandler(1, func(p *Packet) { rail = int(p.Rail) })
	for i := 0; i < 64; i++ {
		pumpKind(t, k, nw, KindSignal, 16)
	}
	allocs := testing.AllocsPerRun(200, func() { pumpKind(t, k, nw, KindSignal, 16) })
	if allocs != 0 {
		t.Errorf("signal-rail pooled send: %.1f allocs/packet, want 0", allocs)
	}
	if rail != 0 {
		t.Errorf("signal delivered on rail %d, want the control rail 0", rail)
	}
}

// BenchmarkNICPipeline measures the full per-packet pipeline cost (enqueue,
// wire, delivery, credit return) on the internode path.
func BenchmarkNICPipeline(b *testing.B) {
	k := sim.NewKernel()
	nw := NewNetwork(k, 2, DefaultConfig())
	nw.SetHandler(1, func(p *Packet) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := nw.AllocPacket()
		p.Src, p.Dst, p.Kind, p.Size = 0, 1, KindPutData, 4096
		p.Arg[3] = 1
		nw.Send(p)
		k.Drain()
	}
}

// The pooled objects carry their pool's link in place: a Packet stays in
// the 128-byte size class and a descriptor in the 64-byte one.
func TestPooledObjectSizes(t *testing.T) {
	if p, d := unsafe.Sizeof(Packet{}), unsafe.Sizeof(desc{}); p > 128 || d > 64 {
		t.Errorf("Packet is %d bytes (max 128), desc %d (max 64)", p, d)
	}
}
