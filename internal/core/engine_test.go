package core

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestLargeAccumulateCTSNeedsOriginCPU verifies the mechanism behind the
// Section VIII-A observation that >8KB accumulates provide no overlap: the
// rendezvous CTS is processed by the origin's CPU engine (step 1), so a
// computing origin delays its own accumulate data.
func TestLargeAccumulateCTSNeedsOriginCPU(t *testing.T) {
	measure := func(computeFirst bool) sim.Time {
		w, rt := testWorld(t, 2)
		var done sim.Time
		runJob(t, w, func(r *mpi.Rank) {
			win := rt.CreateWindow(r, 1<<20, WinOptions{Mode: ModeNew, ShapeOnly: true})
			if r.ID == 0 {
				t0 := r.Now()
				win.Lock(1, false)
				win.Accumulate(1, 0, OpSum, TUint64, nil, 64<<10) // rendezvous
				if computeFirst {
					r.Compute(500 * sim.Microsecond) // CPU busy when CTS arrives
				}
				win.Unlock(1)
				done = r.Now() - t0
			}
			r.Barrier()
			win.Quiesce()
		})
		return done
	}
	withCPU := measure(false)
	busyCPU := measure(true)
	if busyCPU < 500*sim.Microsecond {
		t.Fatalf("busy-origin epoch %d us: data cannot leave before the CTS is CPU-processed", busyCPU/sim.Microsecond)
	}
	// When the CPU is busy, the data transfer starts only after the work,
	// so the epoch lasts ~work + transfer; with the CPU available it is
	// just the rendezvous + transfer.
	if busyCPU < withCPU+400*sim.Microsecond {
		t.Fatalf("large-acc overlap should be denied: free=%d us busy=%d us", withCPU/sim.Microsecond, busyCPU/sim.Microsecond)
	}
}

// TestSmallAccumulateOverlaps is the contrast: <=8KB accumulates are
// one-shot packets fired by the triggered-ops path, so origin compute
// overlaps them fully.
func TestSmallAccumulateOverlaps(t *testing.T) {
	w, rt := testWorld(t, 2)
	var done sim.Time
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1<<20, WinOptions{Mode: ModeNew, ShapeOnly: true})
		if r.ID == 0 {
			t0 := r.Now()
			win.Lock(1, false)
			win.Accumulate(1, 0, OpSum, TUint64, nil, 4<<10)
			r.Compute(500 * sim.Microsecond)
			win.Unlock(1)
			done = r.Now() - t0
		}
		r.Barrier()
		win.Quiesce()
	})
	if done > 520*sim.Microsecond {
		t.Fatalf("small accumulate should overlap the work: epoch %d us", done/sim.Microsecond)
	}
}

// TestEngineSweepsAccounted checks the progress engine actually runs
// during blocking calls: the origin's put is recorded at Put and issued by
// an engine sweep inside the blocking Unlock, so it has landed by the time
// the barrier releases the target.
func TestEngineSweepsAccounted(t *testing.T) {
	w, rt := testWorld(t, 2)
	var got byte
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 8, WinOptions{Mode: ModeNew})
		if r.ID == 0 {
			win.Lock(1, true)
			win.Put(1, 0, []byte{7}, 1)
			win.Unlock(1)
		}
		r.Barrier()
		if r.ID == 1 {
			got = win.Bytes()[0]
		}
		win.Quiesce()
	})
	if got != 7 {
		t.Fatalf("target holds %d after the origin's Unlock, want 7: the engine never swept the put out", got)
	}
}

// TestProgressCouplingTwoSidedDrivesRMA: a rank blocked in a two-sided
// receive must still progress its pending RMA epochs (the paper's
// collaborating progress engines).
func TestProgressCouplingTwoSidedDrivesRMA(t *testing.T) {
	w, rt := testWorld(t, 3)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1<<20, WinOptions{Mode: ModeNew, ShapeOnly: true})
		switch r.ID {
		case 0:
			// Open a nonblocking epoch, then block in a two-sided recv;
			// the RMA epoch must complete while waiting.
			win.IStart([]int{1})
			win.Put(1, 0, nil, 1<<20)
			req := win.IComplete()
			r.RecvMsg(2, 9) // arrives late
			if !req.Done() {
				t.Error("RMA epoch did not progress during the two-sided wait")
			}
		case 1:
			win.Post([]int{0})
			win.WaitEpoch()
		case 2:
			r.Compute(2000 * sim.Microsecond)
			r.SendMsg(0, 9, nil, 8)
		}
		win.Quiesce()
	})
}

// TestRMACallDrivesTwoSided is the converse: a rank blocked in an RMA
// closing call must progress two-sided traffic.
func TestRMACallDrivesTwoSided(t *testing.T) {
	w, rt := testWorld(t, 3)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1<<20, WinOptions{Mode: ModeNew, ShapeOnly: true})
		switch r.ID {
		case 0:
			req := r.Irecv(2, 9)
			// Block inside a (slow) RMA epoch close; the rendezvous with
			// rank 2 must complete meanwhile.
			win.Start([]int{1})
			win.Put(1, 0, nil, 1<<20)
			win.Complete()
			if !req.Done() {
				// The 100KB rendezvous should have finished long before
				// the 1MB put (both started together).
				t.Error("two-sided receive did not progress during the RMA wait")
			}
			r.Wait(req)
		case 1:
			r.Compute(800 * sim.Microsecond) // make the close wait long
			win.Post([]int{0})
			win.WaitEpoch()
		case 2:
			r.SendMsg(0, 9, nil, 100<<10)
		}
		win.Quiesce()
	})
}
