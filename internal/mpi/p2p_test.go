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

// script is a rank program for tests, one call per entry: a call that
// returns pending is repeated at the rank's next Step, so the same script
// runs on a task rank and, in a single Step, on a goroutine rank.
type script struct {
	r     *Rank
	calls []func()
	next  int
}

func (s *script) Step(p *sim.Proc) {
	for ; s.next < len(s.calls); s.next++ {
		if s.calls[s.next](); s.r.Pending() {
			return
		}
	}
	p.TaskExit()
}

// bothForms runs program on every rank of a fresh n-rank world as goroutine
// ranks and as task ranks, calling check after each; the two runs must end
// at the same virtual time after the same events.
func bothForms(t *testing.T, n int, program func(r *Rank) []func(), check func(tasks bool)) {
	t.Helper()
	var end [2]sim.Time
	var events [2]uint64
	for i, tasks := range []bool{false, true} {
		w := NewWorld(n, testCfg())
		w.SetWatchdog(100_000, 0) // a livelocked collective fails instead of hanging
		if err := w.RunProgram(func(r *Rank) sim.Task { return &script{r: r, calls: program(r)} }, tasks); err != nil {
			t.Fatalf("tasks=%t: simulation failed: %v", tasks, err)
		}
		check(tasks)
		end[i], events[i] = w.K.Now(), w.Events()
	}
	if end[0] != end[1] || events[0] != events[1] {
		t.Fatalf("forms diverge: goroutine ranks end at %v after %d events, task ranks at %v after %d",
			end[0], events[0], end[1], events[1])
	}
}

func TestBcastBothForms(t *testing.T) {
	data := []byte("broadcast payload")
	got := make([][]byte, 5)
	bothForms(t, 5, func(r *Rank) []func() {
		var in []byte
		if r.ID == 2 {
			in = data
		}
		return []func(){func() { got[r.ID] = r.Bcast(2, in, int64(len(data))) }}
	}, func(tasks bool) {
		for i, g := range got {
			if string(g) != string(data) {
				t.Fatalf("tasks=%t: rank %d got %q", tasks, i, g)
			}
		}
		clear(got)
	})
}

func TestAllreduceBothForms(t *testing.T) {
	sums := make([]int64, 6)
	maxs := make([]int64, 6)
	bothForms(t, 6, func(r *Rank) []func() {
		return []func(){
			func() { sums[r.ID] = r.AllreduceInt64(OpSum, int64(r.ID+1)) },
			func() { r.Compute(sim.Time(r.ID) * sim.Microsecond) }, // stagger the second round's arrivals
			func() { maxs[r.ID] = r.AllreduceInt64(OpMax, int64(r.ID*10)) },
		}
	}, func(tasks bool) {
		for i := range sums {
			if sums[i] != 21 {
				t.Fatalf("tasks=%t: rank %d sum %d, want 21", tasks, i, sums[i])
			}
			if maxs[i] != 50 {
				t.Fatalf("tasks=%t: rank %d max %d, want 50", tasks, i, maxs[i])
			}
		}
		clear(sums)
		clear(maxs)
	})
}

func TestAllreduceMinBothForms(t *testing.T) {
	got := make([]int64, 3)
	bothForms(t, 3, func(r *Rank) []func() {
		return []func(){func() { got[r.ID] = r.AllreduceInt64(OpMin, int64(5-r.ID)) }}
	}, func(tasks bool) {
		for i, v := range got {
			if v != 3 {
				t.Errorf("tasks=%t: rank %d min %d, want 3", tasks, i, v)
			}
		}
	})
}

func TestGatherBothForms(t *testing.T) {
	outs := make([][]byte, 4)
	bothForms(t, 4, func(r *Rank) []func() {
		blk := []byte{byte(r.ID * 10), byte(r.ID*10 + 1)}
		return []func(){
			func() { r.Compute(sim.Time(4-r.ID) * sim.Microsecond) }, // blocks arrive out of rank order
			func() { outs[r.ID] = r.Gather(2, blk, 2) },
		}
	}, func(tasks bool) {
		want := []byte{0, 1, 10, 11, 20, 21, 30, 31}
		for i, out := range outs {
			switch {
			case i == 2 && string(out) != string(want):
				t.Fatalf("tasks=%t: gather got %v, want %v", tasks, out, want)
			case i != 2 && out != nil:
				t.Errorf("tasks=%t: non-root rank %d got non-nil gather result", tasks, i)
			}
		}
		clear(outs)
	})
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

func TestSingleRankCollectivesBothForms(t *testing.T) {
	bothForms(t, 1, func(r *Rank) []func() {
		return []func(){
			r.Barrier,
			func() {
				if v := r.AllreduceInt64(OpSum, 7); v != 7 {
					t.Errorf("1-rank allreduce %d", v)
				}
			},
			func() {
				if out := r.Bcast(0, []byte{1}, 1); out[0] != 1 {
					t.Error("1-rank bcast lost data")
				}
			},
			func() {
				if out := r.Gather(0, []byte{2}, 1); len(out) != 1 || out[0] != 2 {
					t.Errorf("1-rank gather %v", out)
				}
			},
		}
	}, func(bool) {})
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
