package sim

import (
	"testing"
	"unsafe"
)

// Allocation budgets for the event-scheduling hot path: once the queue's
// storage has warmed up — the heap's backing array, and for a deep queue the
// wheels and their node slab — scheduling and draining events must not touch
// the allocator at all. Any regression here (a reintroduced closure, a boxed
// event, a slab node that is not recycled) shows up as a nonzero count.

func noop() {}

// schedulingAllocs measures one scheduling form in two regimes. Shallow: 64
// events a few nanoseconds ahead, drained, over and over. Deep: 4096
// interleaved chains, each event rescheduling itself 4096 ns ahead, so every
// push and pop happens with 4096 events pending; a run is the next 64 of
// them.
func schedulingAllocs(t *testing.T, schedule func(k *Kernel, at Time, fn func())) {
	t.Run("shallow", func(t *testing.T) {
		k := NewKernel()
		pump := func() {
			for i := 0; i < 64; i++ {
				schedule(k, k.Now()+Time(i%7), noop)
			}
			if err := k.Drain(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ { // warm the queue's storage
			pump()
		}
		if allocs := testing.AllocsPerRun(200, pump); allocs != 0 {
			t.Errorf("%.1f allocs/run, want 0", allocs)
		}
	})
	t.Run("4096 pending", func(t *testing.T) {
		const chains = 4096
		k := NewKernel()
		var step func()
		step = func() { schedule(k, k.Now()+chains, step) }
		for i := 0; i < chains; i++ {
			schedule(k, Time(1+i), step)
		}
		pump := func() {
			if err := k.loop(k.Now() + 64); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2*chains/64; i++ { // every chain through the wheels once
			pump()
		}
		if k.wn < chains/2 {
			t.Fatalf("only %d of %d pending events are in the wheels: not the deep path", k.wn, chains)
		}
		if allocs := testing.AllocsPerRun(200, pump); allocs != 0 {
			t.Errorf("%.1f allocs per 64 events, want 0", allocs)
		}
	})
}

func TestEventSchedulingAllocs(t *testing.T) {
	schedulingAllocs(t, func(k *Kernel, at Time, fn func()) { k.At(at, fn) })
}

// The AtCall budget holds for pointer-shaped arguments; a func value is one.
func TestAtCallSchedulingAllocs(t *testing.T) {
	schedulingAllocs(t, func(k *Kernel, at Time, fn func()) { k.AtCall(at, runFunc, fn) })
}

// Band-1 events keep the same budget: the deep case's k.wn check is what shows
// they are filed under the wheels too, not sifted into the heap.
func TestAtCrossSchedulingAllocs(t *testing.T) {
	owner := -1
	schedulingAllocs(t, func(k *Kernel, at Time, fn func()) {
		if owner++; owner == 7 {
			owner = -1
		}
		k.AtCross(at, runFunc, fn, owner, 0)
	})
}

// TestCrossSeqGrowsAmortised: owners first mint a key in ascending order (rank
// 0's first packet, then rank 1's, ...), so the counter table must grow like
// an append, not by one exact-size copy per new owner.
func TestCrossSeqGrowsAmortised(t *testing.T) {
	const owners = 1 << 16
	allocs := testing.AllocsPerRun(1, func() {
		k := NewKernel()
		for o := -1; o < owners; o++ {
			k.crossSeq(o)
		}
		if k.crossCnt[owners] != 1 {
			t.Fatalf("owner %d minted %d keys, want 1", owners-1, k.crossCnt[owners])
		}
	})
	if allocs > 32 {
		t.Errorf("%.0f allocations to mint for %d ascending owners, budget 32", allocs, owners)
	}
}

// TestShallowKernelHasNoWheels pins what a kernel that never has deepQueue
// events pending pays for the wheels: one nil pointer. The figure worlds
// build hundreds of such kernels per regeneration (3-4 ranks, a dozen
// events in flight), so the wheels are allocated by the first deep push and
// Kernel itself stays within a fixed size.
func TestShallowKernelHasNoWheels(t *testing.T) {
	k := NewKernel()
	fill := func() {
		for i := 0; i < deepQueue; i++ {
			k.At(k.Now()+Time(i%5), noop)
		}
	}
	for round := 0; round < 100; round++ {
		fill()
		if err := k.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	if k.w != nil {
		t.Error("a kernel that never had more than deepQueue events pending allocated the wheels")
	}
	k.At(k.Now(), noop)
	if k.w == nil || k.wn != 1 {
		t.Errorf("the push that found deepQueue events pending did not go to the wheels (wn=%d)", k.wn)
	}
	if size := unsafe.Sizeof(Kernel{}); size > 384 {
		t.Errorf("Kernel is %d bytes, budget 384", size)
	}
}
