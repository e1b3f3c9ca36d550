package mpi

import (
	"runtime"
	"testing"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The pre-completed request is one immutable instance per rank, and sharing
// it is unobservable: a hook registered on it runs at once and is not
// stored, Complete and Fail return before touching a field, and Err stays
// nil after a Fail attempt. Two ranks never share one (Complete wakes the
// owning rank), and a nil rank — legal, see TestRequestOnCompleteHook — gets
// a request of its own.
func TestCompletedRequestIsSharedAndImmutable(t *testing.T) {
	w := NewWorld(2, testCfg())
	r0, r1 := w.Rank(0), w.Rank(1)
	a, b := NewCompletedRequest(r0), NewCompletedRequest(r0)
	if a != b {
		t.Error("two opens on one rank returned different pre-completed requests")
	}
	if a == NewCompletedRequest(r1) {
		t.Error("two ranks share one pre-completed request")
	}
	if a.rank != r0 || !a.Done() {
		t.Errorf("rank 0's pre-completed request: rank=%v done=%t", a.rank, a.Done())
	}
	fired := 0
	a.OnComplete(func() { fired++ })
	if fired != 1 || a.onComplete != nil {
		t.Errorf("hook ran %d times, %d stored; want once, at registration, none stored", fired, len(a.onComplete))
	}
	a.Fail(errTest{})
	a.Complete()
	if fired != 1 || a.Err() != nil || !a.Done() || a.data != nil {
		t.Errorf("Fail/Complete changed the shared request: fired=%d err=%v", fired, a.Err())
	}
	if b.Err() != nil {
		t.Error("a Fail attempt through one handle is visible through the other")
	}
	n1, n2 := NewCompletedRequest(nil), NewCompletedRequest(nil)
	if n1 == n2 || !n1.Done() || n1.rank != nil {
		t.Error("rankless pre-completed requests must be fresh, done and rankless")
	}
}

type errTest struct{}

func (errTest) Error() string { return "test failure" }

// progressTwoSided filters the inbox in place. A delivery that lands while
// the sweep runs — here from a completion hook of the very request the sweep
// is completing — must queue behind the packets the sweep keeps, be lost by
// neither the compaction nor the tail clearing, and leave no handled packet
// reachable from the inbox array.
func TestInboxFilterSurvivesDeliveryDuringSweep(t *testing.T) {
	w := NewWorld(2, testCfg())
	r := w.Rank(0)
	eager := func(tag int) *fabric.Packet {
		return &fabric.Packet{Src: 1, Dst: 0, Kind: fabric.KindEager, Size: 8, Arg: [4]int64{int64(tag), 0, 8, 0}}
	}
	recv := func(tag int) *Request {
		req := NewRequest(r)
		req.recv = &recvOp{req: req, src: 1, tag: tag}
		r.posted = append(r.posted, req)
		return req
	}
	unmatched, late := eager(7), eager(9)
	r.onDeliver(eager(1))
	r.onDeliver(unmatched) // no receive posted: stays queued
	r.onDeliver(eager(2))
	first, second := recv(1), recv(2)
	first.OnComplete(func() { r.onDeliver(late) }) // delivery mid-sweep
	r.progressTwoSided()
	if !first.Done() || !second.Done() {
		t.Fatal("matched receives did not complete")
	}
	if len(r.inbox) != 2 || r.inbox[0] != unmatched || r.inbox[1] != late {
		t.Fatalf("inbox after the sweep = %v, want [unmatched, late]", r.inbox)
	}
	for i, p := range r.inbox[len(r.inbox):cap(r.inbox)] {
		if p != nil {
			t.Errorf("handled packet still reachable at inbox[%d]", len(r.inbox)+i)
		}
	}
	last := recv(9)
	r.progressTwoSided()
	if !last.Done() || len(r.inbox) != 1 || r.inbox[0] != unmatched {
		t.Fatalf("late packet not matched on the next sweep: inbox=%v", r.inbox)
	}
}

// barrierLoop is a rank program of back-to-back Barriers: a pending call is
// repeated at the next Step, so it runs as a task rank and, in one Step, as
// a goroutine rank.
type barrierLoop struct {
	r      *Rank
	rounds int
}

func (b *barrierLoop) Step(p *sim.Proc) {
	for ; b.rounds > 0; b.rounds-- {
		if b.r.Barrier(); b.r.Pending() {
			return
		}
	}
	p.TaskExit()
}

// A steady-state barrier allocates no packet — and nothing else, in either
// execution form: tokens ride in pooled packets and are consumed at
// delivery, and the barrier's position lives in the rank.
func TestBarrierSteadyStateAllocatesNoPackets(t *testing.T) {
	const ranks, rounds = 8, 200
	mallocs := func(tasks bool, n int) uint64 {
		cfg := testCfg()
		cfg.ProcsPerNode = 1 // every token crosses the NIC pipeline
		w := NewWorld(ranks, cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := w.RunProgram(func(r *Rank) sim.Task { return &barrierLoop{r: r, rounds: n} }, tasks)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("simulation failed: %v", err)
		}
		return after.Mallocs - before.Mallocs
	}
	for _, tasks := range []bool{false, true} {
		mallocs(tasks, rounds) // warm-up
		m1, m2 := mallocs(tasks, rounds), mallocs(tasks, 2*rounds)
		per := (float64(m2) - float64(m1)) / (rounds * ranks)
		t.Logf("tasks=%t: %.3f heap objects per rank per barrier", tasks, per)
		if per > 0.05 {
			t.Errorf("tasks=%t: Barrier allocates %.3f objects per rank per barrier, want 0", tasks, per)
		}
	}
}

// Tokens are consumed in NIC context, below the rank's software. Under a
// lossy fabric that duplicates, drops and reorders (jitter) packets, the ARQ
// still hands each token to the handler exactly once: every barrier
// synchronizes, and when the run ends no rank holds a leftover (gen, round)
// entry — a token delivered twice would leave one behind, a lost one would
// have deadlocked the run.
func TestBarrierTokensExactlyOnceUnderLossyARQ(t *testing.T) {
	const ranks, rounds = 5, 60
	cfg := testCfg()
	cfg.ProcsPerNode = 1
	w := NewWorld(ranks, cfg)
	fp := fabric.DefaultFaultProfile(42)
	fp.Drop, fp.Dup, fp.Jitter = 0.08, 0.25, 20*sim.Microsecond
	w.Net.EnableFaults(fp)
	entered := make([]int, ranks)
	err := w.Run(func(r *Rank) {
		for i := 1; i <= rounds; i++ {
			r.Compute(sim.Time(r.ID+1) * sim.Microsecond)
			entered[r.ID] = i
			r.Barrier()
			for j, e := range entered {
				if e < i {
					t.Errorf("rank %d left barrier %d before rank %d entered it", r.ID, i, j)
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	var dups, drops int64
	for i := range w.ranks {
		r := &w.ranks[i]
		if r.barrier.seen != [2]uint64{} {
			t.Errorf("rank %d holds unconsumed barrier tokens: %b", i, r.barrier.seen)
		}
		if len(r.inbox) != 0 {
			t.Errorf("rank %d inbox holds %d packets after a barrier-only run", i, len(r.inbox))
		}
		st := w.Net.Counters.Row(i)
		dups += st.Get(metrics.Lookup("fabric.dups_sent"))
		drops += st.Get(metrics.Lookup("fabric.drops"))
	}
	if dups == 0 || drops == 0 {
		t.Fatalf("fault profile injected dups=%d drops=%d; the test needs both", dups, drops)
	}
}

// A rank that leaves a barrier early enters the next one at once, so its
// first token of generation g+1 can reach a peer still inside g: the token
// waits in the other parity's word and is consumed exactly once, when the
// peer gets to g+1. Two ranks per node (a fast intranode hop beside the
// internode one) and a rank that computes before every other barrier make
// that happen; the test checks it did, in both rank forms, and that no
// token is left over.
func TestBarrierNextGenerationTokenWhileInBarrier(t *testing.T) {
	const ranks, barriers, slow = 5, 20, 1
	cfg := testCfg()
	cfg.ProcsPerNode = 2
	for _, tasks := range []bool{false, true} {
		w := NewWorld(ranks, cfg)
		early := 0
		entered := make([]int, ranks)
		err := w.RunProgram(func(r *Rank) sim.Task {
			var calls []func()
			for i := 1; i <= barriers; i++ {
				calls = append(calls,
					func() {
						if r.ID == slow && i%2 == 1 {
							r.Compute(10 * sim.Microsecond)
						}
					},
					func() { entered[r.ID] = i },
					func() { r.Barrier() },
					func() {
						for j, e := range entered {
							if e < i {
								t.Errorf("tasks=%t: rank %d left barrier %d before rank %d entered it", tasks, r.ID, i, j)
							}
						}
						if r.barrier.seen[(r.barrier.gen+1)&1] != 0 {
							early++ // a token of g+1 came in while this rank was inside g
						}
					})
			}
			return &script{r: r, calls: calls}
		}, tasks)
		if err != nil {
			t.Fatalf("tasks=%t: simulation failed: %v", tasks, err)
		}
		t.Logf("tasks=%t: %d of %d barrier exits found a next-generation token waiting", tasks, early, ranks*barriers)
		if early == 0 {
			t.Errorf("tasks=%t: no next-generation token arrived inside a barrier; the skew does not exercise the case", tasks)
		}
		for i := range w.ranks {
			if seen := w.ranks[i].barrier.seen; seen != [2]uint64{} {
				t.Errorf("tasks=%t: rank %d holds unconsumed barrier tokens: %b", tasks, i, seen)
			}
		}
	}
}
