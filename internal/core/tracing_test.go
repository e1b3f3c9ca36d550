package core

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// End-to-end detector tests: run a scenario that provokes one inefficiency
// pattern, and check the trace analyzer attributes roughly the injected
// delay to that pattern.

func TestDetectorFlagsLatePost(t *testing.T) {
	w, rt := testWorld(t, 2)
	rec := trace.NewRecorder()
	rt.SetTracer(rec)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1<<20, WinOptions{Mode: ModeNew, ShapeOnly: true})
		if r.ID == 0 {
			win.Start([]int{1})
			win.Put(1, 0, nil, 1<<20)
			win.Complete()
		} else {
			r.Compute(1000 * sim.Microsecond) // late post
			win.Post([]int{0})
			win.WaitEpoch()
		}
		win.Quiesce()
	})
	rep := trace.Analyze(rec.Events())
	lp := rep.Pattern("Late Post")
	if lp.Instances == 0 {
		t.Fatalf("detector missed Late Post:\n%s", rep)
	}
	if lp.Worst < 900*sim.Microsecond {
		t.Fatalf("Late Post worst %d us, want ~1000", lp.Worst/sim.Microsecond)
	}
}

func TestDetectorFlagsLateComplete(t *testing.T) {
	w, rt := testWorld(t, 2)
	rec := trace.NewRecorder()
	rt.SetTracer(rec)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 4096, WinOptions{Mode: ModeNew, ShapeOnly: true})
		if r.ID == 0 {
			win.Start([]int{1})
			win.Put(1, 0, nil, 4096)
			r.Compute(1000 * sim.Microsecond) // delays the closing call
			win.Complete()
		} else {
			win.Post([]int{0})
			win.WaitEpoch()
		}
		win.Quiesce()
	})
	rep := trace.Analyze(rec.Events())
	lc := rep.Pattern("Late Complete")
	if lc.Instances == 0 || lc.Worst < 900*sim.Microsecond {
		t.Fatalf("detector missed Late Complete:\n%s", rep)
	}
}

func TestDetectorFlagsWaitAtFence(t *testing.T) {
	w, rt := testWorld(t, 2)
	rec := trace.NewRecorder()
	rt.SetTracer(rec)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 4096, WinOptions{Mode: ModeNew, ShapeOnly: true})
		win.Fence(AssertNone)
		if r.ID == 0 {
			win.Put(1, 0, nil, 64)
			r.Compute(800 * sim.Microsecond) // late closing fence
		}
		win.Fence(AssertNoSucceed)
		win.Quiesce()
	})
	rep := trace.Analyze(rec.Events())
	wf := rep.Pattern("Wait at Fence")
	if wf.Instances == 0 || wf.Worst < 700*sim.Microsecond {
		t.Fatalf("detector missed Wait at Fence:\n%s", rep)
	}
}

func TestDetectorFlagsLateUnlock(t *testing.T) {
	w, rt := testWorld(t, 3)
	rec := trace.NewRecorder()
	rt.SetTracer(rec)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 4096, WinOptions{Mode: ModeNew, ShapeOnly: true})
		switch r.ID {
		case 1: // holder works inside the epoch
			win.Lock(0, true)
			win.Put(0, 0, nil, 64)
			r.Compute(900 * sim.Microsecond)
			win.Unlock(0)
		case 2: // queued requester suffers Late Unlock
			r.Compute(50 * sim.Microsecond)
			win.Lock(0, true)
			win.Put(0, 0, nil, 64)
			win.Unlock(0)
		}
		r.Barrier()
		win.Quiesce()
	})
	rep := trace.Analyze(rec.Events())
	lu := rep.Pattern("Late Unlock")
	if lu.Instances == 0 || lu.Worst < 700*sim.Microsecond {
		t.Fatalf("detector missed Late Unlock:\n%s", rep)
	}
}

func TestDetectorQuietOnNonblockingFix(t *testing.T) {
	// The same Late Complete scenario with nonblocking synchronizations
	// should show (almost) no Late Complete.
	w, rt := testWorld(t, 2)
	rec := trace.NewRecorder()
	rt.SetTracer(rec)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 4096, WinOptions{Mode: ModeNew, ShapeOnly: true})
		if r.ID == 0 {
			win.IStart([]int{1})
			win.Put(1, 0, nil, 4096)
			req := win.IComplete()
			r.Compute(1000 * sim.Microsecond)
			r.Wait(req)
		} else {
			win.Post([]int{0})
			win.WaitEpoch()
		}
		win.Quiesce()
	})
	rep := trace.Analyze(rec.Events())
	lc := rep.Pattern("Late Complete")
	if lc.Worst > 100*sim.Microsecond {
		t.Fatalf("nonblocking close should suppress Late Complete, got worst=%d us:\n%s",
			lc.Worst/sim.Microsecond, rep)
	}
}

// TestAnalyzeConcurrentEpochs: two concurrent access epochs of one window
// (A_A_A_R), one toward an on-time target and one toward a target that
// posts 200 µs late. Each span is charged only its own group's grant, so
// Late Post reads about 1 + 200 µs, not the late grant twice.
func TestAnalyzeConcurrentEpochs(t *testing.T) {
	w, rt := testWorld(t, 3)
	rec := trace.NewRecorder()
	rt.SetTracer(rec)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1<<20, WinOptions{Mode: ModeNew, ShapeOnly: true, Info: Info{AAAR: true}})
		switch r.ID {
		case 0:
			win.IStart([]int{1})
			win.Put(1, 0, nil, 1<<20)
			first := win.IComplete()
			win.IStart([]int{2})
			win.Put(2, 0, nil, 8)
			second := win.IComplete()
			r.Wait(first)
			r.Wait(second)
		case 2:
			r.Compute(200 * sim.Microsecond)
			fallthrough
		case 1:
			win.Post([]int{0})
			win.WaitEpoch()
		}
		win.Quiesce()
	})
	rep := trace.Analyze(rec.Events())
	lp := rep.Pattern("Late Post")
	if lp.Instances != 2 || lp.Total > 205*sim.Microsecond || lp.Worst < 195*sim.Microsecond {
		t.Fatalf("Late Post %d instances, total %d us, worst %d us; want 2, <= 205, >= 195:\n%s",
			lp.Instances, lp.Total/sim.Microsecond, lp.Worst/sim.Microsecond, rep)
	}
}
