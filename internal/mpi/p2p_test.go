package mpi

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

func testCfg() fabric.Config { return fabric.DefaultConfig() }

func run(t *testing.T, n int, body func(r *Rank)) *World {
	t.Helper()
	w := NewWorld(n, testCfg())
	if err := w.Run(body); err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	return w
}

func TestEagerSendRecv(t *testing.T) {
	var got []byte
	run(t, 2, func(r *Rank) {
		if r.ID == 0 {
			r.SendMsg(1, 5, []byte("small"), 5)
		} else {
			got = r.RecvMsg(0, 5)
		}
	})
	if string(got) != "small" {
		t.Fatalf("received %q, want small", got)
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	big := make([]byte, 100000)
	big[99999] = 42
	var got []byte
	run(t, 2, func(r *Rank) {
		if r.ID == 0 {
			r.SendMsg(1, 1, big, int64(len(big)))
		} else {
			got = r.RecvMsg(0, 1)
		}
	})
	if len(got) != 100000 || got[99999] != 42 {
		t.Fatal("rendezvous payload corrupted")
	}
}

func TestMessageOrderingSameTag(t *testing.T) {
	var got []byte
	run(t, 2, func(r *Rank) {
		if r.ID == 0 {
			for i := byte(0); i < 5; i++ {
				r.SendMsg(1, 9, []byte{i}, 1)
			}
		} else {
			for i := 0; i < 5; i++ {
				got = append(got, r.RecvMsg(0, 9)[0])
			}
		}
	})
	for i := byte(0); i < 5; i++ {
		if got[i] != i {
			t.Fatalf("message order %v, want ascending", got)
		}
	}
}

func TestTagSelectivity(t *testing.T) {
	var first []byte
	run(t, 2, func(r *Rank) {
		if r.ID == 0 {
			r.SendMsg(1, 1, []byte("one"), 3)
			r.SendMsg(1, 2, []byte("two"), 3)
		} else {
			// Receive tag 2 first even though tag 1 arrived earlier.
			first = r.RecvMsg(0, 2)
			r.RecvMsg(0, 1)
		}
	})
	if string(first) != "two" {
		t.Fatalf("tag-2 receive got %q", first)
	}
}

func TestUnexpectedMessageBuffered(t *testing.T) {
	var got []byte
	run(t, 2, func(r *Rank) {
		if r.ID == 0 {
			r.SendMsg(1, 3, []byte("early"), 5)
		} else {
			r.Compute(100 * sim.Microsecond) // message arrives before the recv
			got = r.RecvMsg(0, 3)
		}
	})
	if string(got) != "early" {
		t.Fatal("unexpected message lost")
	}
}

func TestIsendIrecvOverlap(t *testing.T) {
	run(t, 2, func(r *Rank) {
		if r.ID == 0 {
			a := r.Isend(1, 1, nil, 50000)
			b := r.Isend(1, 2, nil, 50000)
			r.Wait(a, b)
		} else {
			a := r.Irecv(0, 1)
			b := r.Irecv(0, 2)
			r.Wait(b, a)
		}
	})
}

func TestRendezvousWaitsForReceiver(t *testing.T) {
	var sendDone, recvPosted sim.Time
	run(t, 2, func(r *Rank) {
		if r.ID == 0 {
			t0 := r.Now()
			r.SendMsg(1, 1, nil, 1<<20)
			sendDone = r.Now() - t0
		} else {
			r.Compute(500 * sim.Microsecond)
			recvPosted = r.Now()
			r.RecvMsg(0, 1)
		}
	})
	if sendDone < 500*sim.Microsecond {
		t.Fatalf("rendezvous send completed in %d us, before the receive was posted (posted at %d us)",
			sendDone/sim.Microsecond, recvPosted/sim.Microsecond)
	}
}

func TestEagerCompletesImmediately(t *testing.T) {
	run(t, 2, func(r *Rank) {
		if r.ID == 0 {
			req := r.Isend(1, 1, nil, 100)
			if !req.Done() {
				t.Error("eager send request should complete at injection")
			}
		} else {
			r.RecvMsg(0, 1)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	arrive := make([]sim.Time, 4)
	leave := make([]sim.Time, 4)
	run(t, 4, func(r *Rank) {
		r.Compute(sim.Time(r.ID) * 100 * sim.Microsecond)
		arrive[r.ID] = r.Now()
		r.Barrier()
		leave[r.ID] = r.Now()
	})
	var maxArrive sim.Time
	for _, a := range arrive {
		if a > maxArrive {
			maxArrive = a
		}
	}
	for i, l := range leave {
		if l < maxArrive {
			t.Fatalf("rank %d left the barrier at %d before the last arrival %d", i, l, maxArrive)
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	run(t, 3, func(r *Rank) {
		for i := 0; i < 10; i++ {
			r.Barrier()
		}
	})
}

func TestBcast(t *testing.T) {
	data := []byte("broadcast payload")
	got := make([][]byte, 5)
	run(t, 5, func(r *Rank) {
		var in []byte
		if r.ID == 2 {
			in = data
		}
		got[r.ID] = r.Bcast(2, in, int64(len(data)))
	})
	for i, g := range got {
		if string(g) != string(data) {
			t.Fatalf("rank %d got %q", i, g)
		}
	}
}

func TestAllreduce(t *testing.T) {
	sums := make([]int64, 6)
	maxs := make([]int64, 6)
	run(t, 6, func(r *Rank) {
		sums[r.ID] = r.AllreduceInt64(OpSum, int64(r.ID+1))
		maxs[r.ID] = r.AllreduceInt64(OpMax, int64(r.ID*10))
	})
	for i := range sums {
		if sums[i] != 21 {
			t.Fatalf("rank %d sum %d, want 21", i, sums[i])
		}
		if maxs[i] != 50 {
			t.Fatalf("rank %d max %d, want 50", i, maxs[i])
		}
	}
}

func TestAllreduceMin(t *testing.T) {
	run(t, 3, func(r *Rank) {
		if got := r.AllreduceInt64(OpMin, int64(5-r.ID)); got != 3 {
			t.Errorf("rank %d min %d, want 3", r.ID, got)
		}
	})
}

func TestGather(t *testing.T) {
	var got []byte
	run(t, 4, func(r *Rank) {
		blk := []byte{byte(r.ID * 10), byte(r.ID*10 + 1)}
		out := r.Gather(2, blk, 2)
		if r.ID == 2 {
			got = out
		} else if out != nil {
			t.Errorf("non-root rank %d got non-nil gather result", r.ID)
		}
	})
	want := []byte{0, 1, 10, 11, 20, 21, 30, 31}
	if string(got) != string(want) {
		t.Fatalf("gather got %v, want %v", got, want)
	}
}

func TestSendToSelf(t *testing.T) {
	run(t, 2, func(r *Rank) {
		if r.ID == 0 {
			req := r.Isend(0, 3, []byte("self"), 4)
			got := r.RecvMsg(0, 3)
			r.Wait(req)
			if string(got) != "self" {
				t.Errorf("self message got %q", got)
			}
		}
		r.Barrier()
	})
}

func TestSingleRankCollectives(t *testing.T) {
	run(t, 1, func(r *Rank) {
		r.Barrier()
		if v := r.AllreduceInt64(OpSum, 7); v != 7 {
			t.Errorf("1-rank allreduce %d", v)
		}
		if out := r.Bcast(0, []byte{1}, 1); out[0] != 1 {
			t.Error("1-rank bcast lost data")
		}
	})
}

func TestTimeInMPIAccounting(t *testing.T) {
	var mpiTime sim.Time
	run(t, 2, func(r *Rank) {
		if r.ID == 0 {
			r.Compute(300 * sim.Microsecond)
			r.SendMsg(1, 1, nil, 8)
		} else {
			r.RecvMsg(0, 1) // blocks ~300us for the sender
			mpiTime = r.TimeInMPI
		}
	})
	if mpiTime < 290*sim.Microsecond {
		t.Fatalf("receiver MPI time %d us, want >= 290 us", mpiTime/sim.Microsecond)
	}
}

func TestRequestOnCompleteHook(t *testing.T) {
	fired := false
	req := NewCompletedRequest(nil)
	req.OnComplete(func() { fired = true })
	if !fired {
		t.Fatal("hook on a completed request should fire immediately")
	}
	req2 := NewRequest(nil)
	fired2 := false
	req2.OnComplete(func() { fired2 = true })
	if fired2 {
		t.Fatal("hook fired before completion")
	}
	req2.Complete()
	if !fired2 {
		t.Fatal("hook did not fire at completion")
	}
	req2.Complete() // idempotent
}

func TestSelfNodeTwoSided(t *testing.T) {
	// Intranode path: two ranks on the same node exchange messages.
	w := NewWorld(2, func() fabric.Config {
		cfg := fabric.DefaultConfig()
		cfg.ProcsPerNode = 2
		return cfg
	}())
	var got []byte
	err := w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.SendMsg(1, 1, []byte("intranode"), 9)
		} else {
			got = r.RecvMsg(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "intranode" {
		t.Fatalf("got %q", got)
	}
}

func TestDeadlockSurfaces(t *testing.T) {
	w := NewWorld(2, fabric.DefaultConfig())
	err := w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.RecvMsg(1, 1) // never sent
		}
	})
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
}

// TestDeadlockReportJoinsFabricDiag checks the watchdog's view of a stall on
// a lossy fat-tree: after an incast into rank 0, rank 0 waits for a message
// nobody sends, and its section of the deadlock report carries both the
// adversary's lines and the congestion block around its node.
func TestDeadlockReportJoinsFabricDiag(t *testing.T) {
	const n = 8
	cfg := testCfg()
	cfg.Topo = topo.Spec{Kind: topo.FatTree, HostsPerLeaf: 2, Spines: 1}
	w := NewWorld(n, cfg)
	fp := fabric.DefaultFaultProfile(5)
	fp.Drop = 0.1
	fp.Flaps = []fabric.LinkFlap{{Src: 1, Dst: 0, From: 0, For: 20 * sim.Microsecond}}
	w.Net.EnableFaults(fp)
	err := w.Run(func(r *Rank) {
		if r.ID != 0 {
			r.SendMsg(0, 1, nil, 4096)
			return
		}
		for src := 1; src < n; src++ {
			r.RecvMsg(src, 1)
		}
		r.RecvMsg(1, 2) // never sent
	})
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	msg := err.Error()
	i := strings.Index(msg, "rank0: waiting on")
	if i < 0 {
		t.Fatalf("report has no section for rank 0:\n%s", msg)
	}
	section := msg[i:]
	for _, want := range []string{"fault: link 1->0 flap", "topo fattree: "} {
		if !strings.Contains(section, want) {
			t.Errorf("rank 0's section lacks %q:\n%s", want, section)
		}
	}
}

// sendProbe is a rank program of one Isend to rank 1.
type sendProbe struct{ r *Rank }

func (s *sendProbe) Step(p *sim.Proc) {
	if s.r.Isend(1, 0, nil, 8); s.r.Pending() {
		return
	}
	p.TaskExit()
}

// arrivalProbe posts a receive that is never matched, then records when the
// first packet reaches its rank.
type arrivalProbe struct {
	r    *Rank
	step int
	at   sim.Time
}

func (a *arrivalProbe) Step(p *sim.Proc) {
	for ; a.step < 3; a.step++ {
		switch a.step {
		case 0:
			if a.r.Irecv(0, 99); a.r.Pending() {
				return
			}
		case 1:
			if a.r.Wake.Wait(p, "arrival"); p.Armed() {
				a.step++ // the wake is the wait's completion
				return
			}
		case 2:
			a.at = a.r.Now()
		}
	}
	p.TaskExit()
}

// Isend and Irecv act only once their call overhead has elapsed: stepped on
// a task rank, the send departs at CallOverhead — its packet arrives when a
// goroutine rank's does — and each call registers exactly one message or
// receive, however many Steps it takes.
func TestIFormsChargeFirstInTaskForm(t *testing.T) {
	run := func(tasks bool) (at sim.Time, inbox, posted int) {
		w := NewWorld(2, testCfg())
		probe := &arrivalProbe{}
		err := w.RunProgram(func(r *Rank) sim.Task {
			if r.ID == 0 {
				return &sendProbe{r: r}
			}
			probe.r = r
			return probe
		}, tasks)
		if err != nil {
			t.Fatalf("tasks=%t: simulation failed: %v", tasks, err)
		}
		return probe.at, len(w.Rank(1).inbox), len(w.Rank(1).posted)
	}
	gAt, _, _ := run(false)
	if gAt <= testCfg().CallOverhead {
		t.Fatalf("goroutine ranks: the packet arrived at %d ns, before the send's %d ns charge", gAt, testCfg().CallOverhead)
	}
	if at, inbox, posted := run(true); at != gAt || inbox != 1 || posted != 1 {
		t.Fatalf("task ranks: packet arrived at %d ns (goroutine ranks: %d), %d packets and %d receives registered, want 1 and 1",
			at, gAt, inbox, posted)
	}
}
