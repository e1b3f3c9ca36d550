package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topo"
)

// faultyWorld builds a 2-rank internode job with the given fault profile.
func faultyWorld(t *testing.T, n int, fp fabric.FaultProfile) (*mpi.World, *Runtime) {
	t.Helper()
	w := mpi.NewWorld(n, fabric.DefaultConfig())
	w.Net.EnableFaults(fp)
	return w, NewRuntime(w)
}

// The ISSUE acceptance scenario: a peer that stops answering mid-run must
// surface ErrRankUnreachable from a blocked epoch wait — within bounded
// virtual time — instead of hanging the simulation.
func TestUnreachablePeerSurfacesError(t *testing.T) {
	fp := fabric.DefaultFaultProfile(1)
	fp.Drop = 0.01 // engages the ARQ: the stream retries until the declaration tears it down
	fp.Deaths = []fabric.RankDeath{{Rank: 1, At: 200 * sim.Microsecond}}
	fp.DetectDelay = 250 * sim.Microsecond // declared while the wait below is blocked
	w, rt := faultyWorld(t, 2, fp)
	var deadline sim.Time
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1024, WinOptions{
			Mode:         ModeNew,
			EpochTimeout: 50 * sim.Millisecond,
		})
		if r.ID != 0 {
			return // rank 1 goes silent; the fabric stops delivering to it
		}
		r.Compute(300 * sim.Microsecond) // let the death pass first
		deadline = r.Now() + 50*sim.Millisecond
		win.Lock(1, true)
		win.Put(1, 0, make([]byte, 256), 256)
		win.Unlock(1) // must unwind with the error, not hang
		t.Error("Unlock returned despite an unreachable target")
	})
	if err == nil {
		t.Fatal("run succeeded against a dead peer")
	}
	var rma *RMAError
	if !errors.As(err, &rma) {
		t.Fatalf("error %v does not unwrap to *RMAError", err)
	}
	if rma.Class != ErrRankUnreachable {
		t.Fatalf("class = %v, want ERR_RANK_UNREACHABLE (%v)", rma.Class, err)
	}
	if rma.Peer != 1 || rma.Rank != 0 {
		t.Errorf("attribution rank=%d peer=%d, want rank=0 peer=1", rma.Rank, rma.Peer)
	}
	if w.K.Now() > deadline {
		t.Errorf("error surfaced at t=%d, after the %d deadline", w.K.Now(), deadline)
	}
}

// An abort fails request-based ops in the order the application issued them
// — the window's live ops are a list in age order — so their completion
// hooks run in issue order, whether a lock epoch aborts (abortEpoch) or a
// flush-mode window is poisoned (flushState.abortPeer).
func TestAbortFailsOpsInIssueOrder(t *testing.T) {
	for _, mode := range []Mode{ModeNew, ModeFlush} {
		fp := fabric.DefaultFaultProfile(1)
		fp.Deaths = []fabric.RankDeath{{Rank: 1, At: 200 * sim.Microsecond}}
		fp.DetectDelay = 250 * sim.Microsecond // declared while the flush below waits
		w, rt := faultyWorld(t, 2, fp)
		var order []int
		err := w.Run(func(r *mpi.Rank) {
			win := rt.CreateWindow(r, 1024, WinOptions{Mode: mode})
			if r.ID != 0 {
				return
			}
			r.Compute(300 * sim.Microsecond) // dead, not yet declared
			if mode == ModeNew {
				win.ILock(1, true) // never granted: the puts stay recorded
			}
			for i := 0; i < 8; i++ {
				win.RPut(1, int64(8*i), make([]byte, 8), 8).OnComplete(func() { order = append(order, i) })
			}
			win.FlushAll() // unwinds with the abort
		})
		var rma *RMAError
		if !errors.As(err, &rma) || rma.Class != ErrRankUnreachable {
			t.Fatalf("mode %s: run error %v, want ERR_RANK_UNREACHABLE", mode, err)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("mode %s: hooks ran in order %v, want issue order", mode, order)
			}
		}
		if len(order) != 8 {
			t.Fatalf("mode %s: %d of 8 hooks ran", mode, len(order))
		}
	}
}

// A stalled-but-not-provably-dead epoch times out with ErrTimeout.
func TestEpochTimeoutClassifiesStall(t *testing.T) {
	w, rt := testWorld(t, 2)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{
			Mode:         ModeNew,
			EpochTimeout: 2 * sim.Millisecond,
		})
		if r.ID != 0 {
			return // never posts the matching exposure
		}
		win.Start([]int{1})
		// The put cannot issue until rank 1 grants the access, which it
		// never does — so the epoch stays incomplete and the watchdog fires.
		win.Put(1, 0, make([]byte, 32), 32)
		win.Complete()
		t.Error("Complete returned without a matching Post")
	})
	var rma *RMAError
	if !errors.As(err, &rma) {
		t.Fatalf("error %v does not unwrap to *RMAError", err)
	}
	if rma.Class != ErrTimeout {
		t.Fatalf("class = %v, want ERR_TIMEOUT (%v)", rma.Class, err)
	}
	if rma.Peer != -1 {
		t.Errorf("peer = %d; a plain stall is unattributable, want -1", rma.Peer)
	}
	if !strings.Contains(err.Error(), "2ms") {
		t.Errorf("message %q does not state the configured timeout", err)
	}
	if w.K.Now() > 3*sim.Millisecond {
		t.Errorf("timeout fired at t=%d, far beyond the configured bound", w.K.Now())
	}
}

// Nonblocking closes must not panic: the failure travels through the
// closing request's Err, and the window records the abort in its Stats.
func TestNonblockingAbortFailsRequest(t *testing.T) {
	w, rt := testWorld(t, 2)
	var reqErr error
	var fs counts
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{
			Mode:         ModeNew,
			EpochTimeout: 2 * sim.Millisecond,
		})
		if r.ID != 0 {
			return
		}
		win.IStart([]int{1})
		win.Put(1, 0, make([]byte, 32), 32) // never granted, never issues
		req := win.IComplete()
		r.Wait(req) // returns (completed-with-error) instead of deadlocking
		reqErr = req.Err()
		fs = win.counters()
	})
	if err != nil {
		t.Fatalf("nonblocking abort escalated to a run failure: %v", err)
	}
	var rma *RMAError
	if !errors.As(reqErr, &rma) || rma.Class != ErrTimeout {
		t.Fatalf("request error = %v, want an ErrTimeout *RMAError", reqErr)
	}
	if fs[cTimeouts] != 1 || fs[cEpochsAborted] == 0 {
		t.Errorf("Stats = %+v, want Timeouts=1 and EpochsAborted>0", fs)
	}
}

// When the first of several deferred epochs dies, its successors unwind as
// ERR_EPOCH_ABORTED — the serial pipeline cannot skip a wedged epoch.
func TestAbortCascadesToDeferredEpochs(t *testing.T) {
	w, rt := testWorld(t, 2)
	var errs [2]error
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{
			Mode:         ModeNew,
			EpochTimeout: 2 * sim.Millisecond,
		})
		if r.ID != 0 {
			return
		}
		win.IStart([]int{1})
		win.Put(1, 0, make([]byte, 32), 32) // never granted, never issues
		r1 := win.IComplete()
		win.IStart([]int{1}) // deferred behind the doomed epoch
		r2 := win.IComplete()
		r.Wait(r1)
		r.Wait(r2)
		errs[0], errs[1] = r1.Err(), r2.Err()
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	var rma *RMAError
	if !errors.As(errs[0], &rma) || rma.Class != ErrTimeout {
		t.Fatalf("first epoch error = %v, want ErrTimeout", errs[0])
	}
	if !errors.As(errs[1], &rma) || rma.Class != ErrEpochAborted {
		t.Fatalf("deferred epoch error = %v, want ErrEpochAborted", errs[1])
	}
}

// An aborted window refuses new operations with the stored cause instead of
// corrupting state.
func TestAbortedEpochRejectsNewOps(t *testing.T) {
	w, rt := testWorld(t, 2)
	sawPanic := false
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{
			Mode:         ModeNew,
			EpochTimeout: 2 * sim.Millisecond,
		})
		if r.ID != 0 {
			return
		}
		win.IStart([]int{1})
		win.Put(1, 0, make([]byte, 8), 8) // never granted; times out
		req := win.IComplete()
		r.Wait(req)
		if win.Err() == nil {
			t.Error("window error not recorded after abort")
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					sawPanic = true
				}
			}()
			win.IStart([]int{1}) // the poisoned window rejects new epochs
		}()
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !sawPanic {
		t.Error("operation on an aborted epoch did not raise")
	}
}

// End-to-end GATS correctness over an adversarial-but-recoverable fabric:
// data lands intact, the rank's fabric counters expose the recovery work and the
// window records no abort.
func TestLossyGATSEndToEnd(t *testing.T) {
	fp := fabric.DefaultFaultProfile(99)
	fp.Drop = 0.08
	fp.Dup = 0.05
	fp.Corrupt = 0.02
	fp.Jitter = 2 * sim.Microsecond
	w, rt := faultyWorld(t, 2, fp)
	payload := make([]byte, 1<<13)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	var fs counts
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1<<13, WinOptions{Mode: ModeNew})
		for round := 0; round < 16; round++ {
			if r.ID == 0 {
				win.Start([]int{1})
				win.Put(1, 0, payload, int64(len(payload)))
				win.Complete()
			} else {
				win.Post([]int{0})
				win.WaitEpoch()
			}
		}
		if r.ID == 1 {
			got = append([]byte(nil), win.Bytes()...)
		}
		if r.ID == 0 {
			fs = win.counters()
		}
		win.Quiesce()
	})
	if err != nil {
		t.Fatalf("lossy run failed: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatal("payload corrupted across the lossy fabric")
	}
	if fs[fabDrops] == 0 || fs[fabRetransmits] == 0 {
		t.Errorf("counters show no recovery work on a lossy run: %v", fs)
	}
	if fs[cEpochsAborted] != 0 || fs[cTimeouts] != 0 {
		t.Errorf("recoverable loss escalated to aborts: %+v", fs)
	}
}

// TestDeadlockReportShowsCounters: the report for a rank left blocked on a
// lossy fat-tree run carries that rank's nonzero counters of every layer on
// one line, in the metrics set's one format: the RMA layer's, the go-back-N
// layer's and the topology engine's fabric-wide ones.
func TestDeadlockReportShowsCounters(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.Topo = topo.Spec{Kind: topo.FatTree, HostsPerLeaf: 1, Spines: 1}
	w := mpi.NewWorld(2, cfg)
	w.Net.EnableFaults(fabric.FaultProfile{Seed: 3, Drop: 0.2})
	rt := NewRuntime(w)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{})
		if r.ID == 0 {
			for i := 0; i < 8; i++ {
				win.Lock(1, true)
				win.Put(1, 0, make([]byte, 8), 8)
				win.Unlock(1)
			}
			r.Barrier() // rank 1 never joins
		}
	})
	if err == nil {
		t.Fatal("a barrier only rank 0 entered did not deadlock")
	}
	var line string
	for _, l := range strings.Split(err.Error(), "\n") {
		if l = strings.TrimSpace(l); strings.HasPrefix(l, "counters: ") {
			line = l
		}
	}
	for _, want := range []string{"core.epochs_completed=8 ", "core.ops_issued=8 ", "fabric.retransmits=", "fabric.sent=", "topo.forwarded="} {
		if !strings.Contains(line+" ", want) {
			t.Errorf("counters line lacks %q:\n%s", want, err)
		}
	}
}

// Satellite: duplicated counter updates (grants, dones) are idempotent —
// the ω algebra is max-merge, so replaying any control word is harmless.
func TestDuplicateCounterUpdatesIdempotent(t *testing.T) {
	c := &peerCounters{}
	c.recordGrant(3)
	g := c.g
	c.recordGrant(3) // exact duplicate delivery
	c.recordGrant(3)
	if c.g != g {
		t.Fatalf("duplicate grant moved g: %d -> %d", g, c.g)
	}
	c.recordDone(2)
	d := c.doneRecv
	c.recordDone(2)
	if c.doneRecv != d {
		t.Fatalf("duplicate done moved doneRecv: %d -> %d", d, c.doneRecv)
	}
	if !c.exposureComplete(2) || c.exposureComplete(3) {
		t.Fatal("completion predicate disturbed by duplicate dones")
	}
}

// Satellite: a duplicated lock-grant packet replayed into the engine's
// control path must not double-activate the epoch or wedge the agent.
func TestDuplicateLockGrantIdempotent(t *testing.T) {
	w, rt := testWorld(t, 2)
	payload := []byte("idempotent grant")
	var got []byte
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew})
		if r.ID == 0 {
			win.Lock(1, true)
			win.Put(1, 0, payload, int64(len(payload)))
			win.Flush(1) // lock is granted and used by now
			// Replay the grant control word exactly as a duplicated
			// KindPostNotify delivery would (same cumulative value).
			eng := &rt.engines[0]
			eng.apply(win, 1, chGrant, win.peer(1).g)
			win.Unlock(1)
		}
		r.Barrier() // target reads only after the origin's unlock
		if r.ID == 1 {
			got = append([]byte(nil), win.Bytes()[:len(payload)]...)
		}
		win.Quiesce()
	})
	if err != nil {
		t.Fatalf("run failed after duplicated grant: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("target saw %q, want %q", got, payload)
	}
}

// Satellite: a timed-out epoch names the peers it is actually blocked on —
// the failover target list — both in the typed Peers field and in the
// rendered message. A healthy co-target whose data and done notification
// already completed must not appear.
func TestTimeoutCarriesBlockedPeers(t *testing.T) {
	w, rt := testWorld(t, 3)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 256, WinOptions{
			Mode:         ModeNew,
			EpochTimeout: 2 * sim.Millisecond,
		})
		switch r.ID {
		case 0:
			win.Start([]int{1, 2})
			win.Put(1, 0, make([]byte, 32), 32)
			win.Put(2, 0, make([]byte, 32), 32) // rank 2 never posts: stalls
			win.Complete()
			t.Error("Complete returned without rank 2's exposure")
		case 1:
			win.Post([]int{0})
			win.WaitEpoch()
		case 2:
			// Never posts the matching exposure.
		}
	})
	var rma *RMAError
	if !errors.As(err, &rma) {
		t.Fatalf("error %v does not unwrap to *RMAError", err)
	}
	if rma.Class != ErrTimeout || rma.Peer != -1 {
		t.Fatalf("class=%v peer=%d, want ERR_TIMEOUT with peer -1 (%v)", rma.Class, rma.Peer, err)
	}
	if len(rma.Peers) != 1 || rma.Peers[0] != 2 {
		t.Fatalf("blocked peer set = %v, want [2] (%v)", rma.Peers, err)
	}
	if !strings.Contains(err.Error(), "blocked peers [2]") {
		t.Errorf("message %q does not render the blocked peer set", err)
	}
}

// Satellite: double abort — an epoch timeout firing before the fabric's
// unreachable-peer declaration means the window aborts twice. The second
// abort must be a no-op: no panic, and the first *RMAError (the timeout)
// stays the window's error.
func TestDoubleAbortPreservesFirstError(t *testing.T) {
	fp := fabric.DefaultFaultProfile(43)
	fp.Deaths = []fabric.RankDeath{{Rank: 1, At: 200 * sim.Microsecond}} // window creation completes first
	fp.DetectDelay = 2 * sim.Millisecond                                 // the timeout wins
	w, rt := faultyWorld(t, 2, fp)
	var reqErr, winErr error
	var fs counts
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 256, WinOptions{
			Mode:         ModeNew,
			EpochTimeout: 100 * sim.Microsecond,
		})
		if r.ID != 0 {
			return
		}
		r.Compute(300 * sim.Microsecond) // let the death pass first
		win.IStart([]int{1})
		win.Put(1, 0, make([]byte, 64), 64)
		req := win.IComplete()
		r.Wait(req) // timeout abort: completes-with-error at ~100us
		reqErr = req.Err()
		r.Compute(5 * sim.Millisecond) // let the unreachable declaration land too
		winErr = win.Err()
		fs = win.counters()
	})
	if err != nil {
		t.Fatalf("run failed (double abort escalated?): %v", err)
	}
	var rma *RMAError
	if !errors.As(reqErr, &rma) || rma.Class != ErrTimeout {
		t.Fatalf("first abort error = %v, want ErrTimeout (declaration had not landed yet)", reqErr)
	}
	if !errors.As(winErr, &rma) || rma.Class != ErrTimeout {
		t.Fatalf("window error after declaration = %v, want the first ErrTimeout preserved", winErr)
	}
	if fs[cEpochsAborted] != 1 {
		t.Errorf("EpochsAborted = %d, want exactly 1 (second abort must be a no-op)", fs[cEpochsAborted])
	}
}

// The tentpole core property: under a *scheduled* rank death, only the
// windows that depend on the dead rank poison; a sibling flush-mode window
// whose master, locks and transfers all avoid it keeps serving. This is
// what lets a replicated store recover around a dead home instead of dying
// with it.
func TestScheduledDeathPoisonsOnlyDependentWindows(t *testing.T) {
	w := mpi.NewWorld(3, fabric.DefaultConfig())
	w.Net.EnableFaults(fabric.FaultProfile{
		Deaths: []fabric.RankDeath{{Rank: 2, At: 100 * sim.Microsecond}},
	})
	rt := NewRuntime(w)
	var errA, errB error
	var after []byte
	err := w.Run(func(r *mpi.Rank) {
		winA := rt.CreateWindow(r, 256, WinOptions{Mode: ModeFlush, FlushMaster: 1})
		winB := rt.CreateWindow(r, 256, WinOptions{Mode: ModeFlush, FlushMaster: 2})
		if r.ID != 0 {
			return // rank 2 dies at 100us; rank 1 serves in NIC context
		}
		winB.Put(2, 0, []byte("pre-death"), 9)
		winB.Flush(2)                    // completes: rank 2 is still alive
		r.Compute(200 * sim.Microsecond) // past death + detection
		errB = winB.Err()
		errA = winA.Err()
		// The healthy window keeps serving after the death.
		winA.Lock(1, true)
		winA.Put(1, 0, []byte("post-death"), 10)
		winA.Unlock(1)
		after = append([]byte(nil), []byte("post-death")...)
		// Post-poison nonblocking ops on winB fail fast with the cause.
		fq := winB.IFlush(2)
		if !fq.Done() {
			t.Error("IFlush on the poisoned window should fail immediately")
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	var rma *RMAError
	if !errors.As(errB, &rma) || rma.Class != ErrRankUnreachable || rma.Peer != 2 {
		t.Fatalf("dependent window error = %v, want ErrRankUnreachable peer 2", errB)
	}
	if errA != nil {
		t.Fatalf("independent window poisoned: %v", errA)
	}
	if string(after) != "post-death" {
		t.Fatal("post-death traffic on the healthy window did not complete")
	}
}

// Epoch timeouts are inert on completing runs: nothing fires, nothing
// aborts, and the armed timers do not prevent kernel quiescence.
func TestEpochTimeoutInertOnHealthyRun(t *testing.T) {
	w, rt := testWorld(t, 2)
	var fs counts
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1024, WinOptions{
			Mode:         ModeNew,
			EpochTimeout: 10 * sim.Millisecond,
		})
		if r.ID == 0 {
			win.Start([]int{1})
			win.Put(1, 0, make([]byte, 512), 512)
			win.Complete()
			fs = win.counters()
		} else {
			win.Post([]int{0})
			win.WaitEpoch()
		}
		win.Quiesce()
	})
	if fs[cTimeouts] != 0 || fs[cEpochsAborted] != 0 {
		t.Fatalf("healthy run tripped the watchdog: %+v", fs)
	}
}
