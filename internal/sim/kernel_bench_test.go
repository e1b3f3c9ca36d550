package sim

import "testing"

// BenchmarkEventChain measures the kernel's core scheduling loop: one event
// per op, each rescheduling itself one nanosecond later (heap push + pop +
// dispatch). ns/op is the per-event cost; events/sec = 1e9 / (ns/op).
func BenchmarkEventChain(b *testing.B) {
	k := NewKernel()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			k.At(k.Now()+1, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.At(k.Now()+1, step)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventQueueDeep is the event chain at depth: 4096 interleaved
// chains, each rescheduling itself 4096 ns ahead, so every push and pop works
// on a queue of 4096 pending events that sit beyond the open window; and
// every 1024th event adds a 128-event cluster at one instant, half of it
// band-1 (AtCross), so the heap side, same-instant FIFOs and the two-sided
// pop are all on the measured path. One op is one chain event (a cluster adds
// 12.5 % more events than b.N counts).
func BenchmarkEventQueueDeep(b *testing.B) {
	const chains = 4096
	k := NewKernel()
	left := b.N
	nop := func(any) {}
	var step func(any)
	step = func(any) {
		if left--; left <= 0 {
			return
		}
		k.AfterCall(chains, step, nil)
		if left%1024 == 0 {
			at := k.Now() + 100
			for j := 0; j < 64; j++ {
				k.AtCall(at, nop, nil)
				k.AtCross(at, nop, nil, j%8, 0)
			}
		}
	}
	for i := 0; i < chains; i++ {
		k.AfterCall(Time(1+i), step, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCrossQueueDeep is the deep queue with every event band-1: 4096
// chains, each rescheduling itself 4096 ns ahead (rounded down to a multiple
// of 4, so four chains share most instants) under one of 8 owners taken in
// rotation — ascending within an instant except where the rotation wraps.
// One op is one event.
func BenchmarkCrossQueueDeep(b *testing.B) {
	const chains = 4096
	k := NewKernel()
	n := 0
	var step func(any)
	step = func(any) {
		if n++; n > b.N {
			return
		}
		k.AtCross((k.Now()+chains)&^3, step, nil, n%8, 0)
	}
	for i := 0; i < chains; i++ {
		k.AtCross(Time(1+i), step, nil, i%8, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
