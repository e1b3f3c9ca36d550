package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/mpi"
)

// Allocation budgets per epoch, measured the way the macro benchmark's
// core.mallocs_per_gats_epoch driver measures them: the heap-object count of
// a 2N-epoch run minus that of an N-epoch run cancels world and window
// construction, leaving the exact steady-state cost of N epochs. Epochs and
// ops recycle through their window, so every epoch case reads 0 to within
// ±0.01 (slice growth amortizes), and its budget of 0.05 objects per epoch
// fails on one object in twenty epochs: an epoch that misses the free list, a
// map, a boxed handle or a per-call slice sneaking back in fails tier-1, not
// just the benchmark. flush/put+flush's one object is its flush request.

// epochMallocs returns the heap objects one epoch costs on a 2-rank world:
// rank 0 runs origin and rank 1 runs target (may be nil) once per epoch.
// The window is large enough for an accumulate by rendezvous.
func epochMallocs(t *testing.T, opt WinOptions, origin, target func(*Window, *mpi.Rank)) float64 {
	t.Helper()
	const epochs = 400
	opt.ShapeOnly = true
	run := func(n int) uint64 {
		w := mpi.NewWorld(2, fabric.DefaultConfig())
		rt := NewRuntime(w)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := w.Run(func(r *mpi.Rank) {
			win := rt.CreateWindow(r, 4*mpi.EagerThreshold, opt)
			for i := 0; i < n; i++ {
				if r.ID == 0 {
					origin(win, r)
				} else if target != nil {
					target(win, r)
				}
			}
			r.Barrier()
			win.Quiesce()
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("simulation failed: %v", err)
		}
		return after.Mallocs - before.Mallocs
	}
	run(epochs) // warm-up: lazily built runtime state must not count
	m1, m2 := run(epochs), run(2*epochs)
	return (float64(m2) - float64(m1)) / epochs
}

func TestEpochAllocationBudgets(t *testing.T) {
	peer0, peer1 := []int{0}, []int{1}
	gatsOrigin := func(win *Window, _ *mpi.Rank) {
		win.Start(peer1)
		win.Put(1, 0, nil, 8)
		win.Complete()
	}
	gatsTarget := func(win *Window, _ *mpi.Rank) {
		win.Post(peer0)
		win.WaitEpoch()
	}
	fence := func(win *Window, r *mpi.Rank) {
		win.Fence(AssertNone)
		if r.ID == 0 {
			win.Put(1, 0, nil, 8)
		}
		win.Fence(AssertNoSucceed)
	}
	lock := func(win *Window, _ *mpi.Rank) {
		win.Lock(1, true)
		win.Put(1, 0, nil, 8)
		win.Unlock(1)
	}
	lockAll := func(win *Window, _ *mpi.Rank) {
		win.LockAll()
		win.Put(1, 0, nil, 8)
		win.UnlockAll()
	}
	// A vector op keeps its shape in the recycled op, so a strided epoch
	// costs what a contiguous one does.
	putVector := func(win *Window, _ *mpi.Rank) {
		win.Lock(1, true)
		win.PutVector(1, 0, 2, 4, 8, nil)
		win.Unlock(1)
	}
	getVector := func(win *Window, _ *mpi.Rank) {
		win.Lock(1, true)
		win.GetVector(1, 0, 2, 4, 8, nil)
		win.Unlock(1)
	}
	// An accumulate above the eager threshold goes by rendezvous: its CTS
	// queues the op for the origin's CPU, which sends the data.
	accRendezvous := func(win *Window, _ *mpi.Rank) {
		win.Lock(1, true)
		win.Accumulate(1, 0, OpSum, TUint64, nil, 2*mpi.EagerThreshold)
		win.Unlock(1)
	}
	// A burst of puts keeps more than a chunk of descriptors, packets and
	// ops in flight at once: the pools fill once and are reused.
	burst := func(win *Window, _ *mpi.Rank) {
		win.Lock(1, true)
		for i := 0; i < 3*64; i++ {
			win.Put(1, 0, nil, 8)
		}
		win.Unlock(1)
	}
	flushPut := func(win *Window, r *mpi.Rank) {
		win.Put(1, 0, nil, 8)
		r.Wait(win.IFlush(1))
	}
	cases := []struct {
		name           string
		opt            WinOptions
		origin, target func(*Window, *mpi.Rank)
		budget         float64 // heap objects per epoch, both ranks together
	}{
		{"new/gats", WinOptions{Mode: ModeNew}, gatsOrigin, gatsTarget, 0.05},
		{"new/fence", WinOptions{Mode: ModeNew}, fence, fence, 0.05},
		{"new/lock", WinOptions{Mode: ModeNew}, lock, nil, 0.05},
		{"new/lock_all", WinOptions{Mode: ModeNew}, lockAll, nil, 0.05},
		{"new/lock+PutVector", WinOptions{Mode: ModeNew}, putVector, nil, 0.05},
		{"new/lock+GetVector", WinOptions{Mode: ModeNew}, getVector, nil, 0.05},
		{"new/lock+acc rendezvous", WinOptions{Mode: ModeNew}, accRendezvous, nil, 0.05},
		{"new/lock+192 puts", WinOptions{Mode: ModeNew}, burst, nil, 0.05},
		{"vanilla/gats", WinOptions{Mode: ModeVanilla}, gatsOrigin, gatsTarget, 0.05},
		{"vanilla/fence", WinOptions{Mode: ModeVanilla}, fence, fence, 0.05},
		{"vanilla/lock", WinOptions{Mode: ModeVanilla}, lock, nil, 0.05},
		{"vanilla/lock_all", WinOptions{Mode: ModeVanilla}, lockAll, nil, 0.05},
		{"flush/put+flush", WinOptions{Mode: ModeFlush}, flushPut, nil, 2},
		{"signal/gats", WinOptions{Mode: ModeNew, Transport: TransportSignal}, gatsOrigin, gatsTarget, 0.05},
	}
	for _, c := range cases {
		got := epochMallocs(t, c.opt, c.origin, c.target)
		t.Logf("%-23s %6.2f objects/epoch (budget %.2f)", c.name, got, c.budget)
		if got > c.budget {
			t.Errorf("%s: %.2f heap objects per epoch, budget %.2f", c.name, got, c.budget)
		}
	}
}

// An 8-byte accumulate element combines in registers: applying an
// 8-element TUint64 sum to a data-carrying window allocates nothing, even
// when every result is too large for Go's small-integer interface cache.
func TestAccumulateAllocs(t *testing.T) {
	w := &Window{buf: make([]byte, 64)}
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(0xf0 + i)
	}
	if n := testing.AllocsPerRun(100, func() { w.applyAcc(0, data, 64, OpSum, TUint64) }); n != 0 {
		t.Errorf("8-element TUint64 accumulate: %.1f allocations, want 0", n)
	}
}

// An op chains its pool through nextLive, a link it already has, and stays
// in the 256-byte size class.
func TestOpSize(t *testing.T) {
	if s := unsafe.Sizeof(rmaOp{}); s > 256 {
		t.Errorf("rmaOp is %d bytes, max 256", s)
	}
}
