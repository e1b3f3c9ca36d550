package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// ModeFlush basics: ops issue eagerly with no epoch open, Flush gives
// remote completion, and the data lands.
func TestFlushModeEagerIssueAndCompletion(t *testing.T) {
	w, rt := testWorld(t, 2)
	var got uint64
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeFlush})
		if r.ID == 0 {
			data := make([]byte, 8)
			binary.LittleEndian.PutUint64(data, 4242)
			win.Put(1, 0, data, 8) // no lock, no epoch: issues at call time
			win.Flush(1)           // remote completion
		}
		r.Barrier()
		if r.ID == 1 {
			got = binary.LittleEndian.Uint64(win.Bytes()[0:8])
		}
		win.Quiesce()
	})
	if got != 4242 {
		t.Fatalf("flushed put not visible at target: %d", got)
	}
}

// The epochless lock_all+flush idiom end-to-end: every rank locks all,
// scatters a value into every peer, flushes, barriers, reads.
func TestFlushModeLockAllFlushIdiom(t *testing.T) {
	const n = 4
	w, rt := testWorld(t, n)
	var sums [n]uint64
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 8*n, WinOptions{Mode: ModeFlush})
		win.LockAll()
		data := make([]byte, 8)
		for tg := 0; tg < n; tg++ {
			binary.LittleEndian.PutUint64(data, uint64(100+r.ID))
			win.Put(tg, int64(8*r.ID), data, 8)
		}
		win.FlushAll()
		r.Barrier()
		var s uint64
		for src := 0; src < n; src++ {
			s += binary.LittleEndian.Uint64(win.Bytes()[8*src : 8*src+8])
		}
		sums[r.ID] = s
		win.UnlockAll()
		win.Quiesce()
	})
	want := uint64(n*100 + (n-1)*n/2)
	for i, s := range sums {
		if s != want {
			t.Fatalf("rank %d saw sum %d, want %d", i, s, want)
		}
	}
}

// IFlush age-stamping carries over to flush mode: a flush stamped before a
// big put must not wait for it.
func TestFlushModeIFlushAgeStamping(t *testing.T) {
	w, rt := testWorld(t, 2)
	var flushDone, bigDone sim.Time
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1<<20, WinOptions{Mode: ModeFlush, ShapeOnly: true})
		if r.ID == 0 {
			t0 := r.Now()
			win.Put(1, 0, nil, 4096)
			req := win.IFlush(1)
			win.Put(1, 0, nil, 1<<20) // younger than the flush stamp
			r.Wait(req)
			flushDone = r.Now() - t0
			win.Flush(1)
			bigDone = r.Now() - t0
		}
		r.Barrier()
		win.Quiesce()
	})
	if flushDone >= bigDone {
		t.Fatalf("IFlush (%dus) waited for a younger 1MB op (%dus)",
			flushDone/sim.Microsecond, bigDone/sim.Microsecond)
	}
}

// Exclusive locks mutually exclude: two ranks serialize their critical
// sections on the same target, verified through time intervals.
func TestFlushModeExclusiveLockMutualExclusion(t *testing.T) {
	w, rt := testWorld(t, 3)
	var start, end [3]sim.Time
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeFlush})
		if r.ID == 1 || r.ID == 2 {
			win.Lock(0, true)
			start[r.ID] = r.Now()
			r.Compute(200 * sim.Microsecond)
			end[r.ID] = r.Now()
			win.Unlock(0)
		}
		r.Barrier()
		win.Quiesce()
	})
	overlap := start[1] < end[2] && start[2] < end[1]
	if overlap {
		t.Fatalf("critical sections overlapped: [%d,%d] vs [%d,%d] (us)",
			start[1]/sim.Microsecond, end[1]/sim.Microsecond,
			start[2]/sim.Microsecond, end[2]/sim.Microsecond)
	}
}

// Shared locks admit each other but exclude an exclusive: the exclusive
// section must not overlap either shared section.
func TestFlushModeSharedAdmitsSharedExcludesExclusive(t *testing.T) {
	w, rt := testWorld(t, 4)
	var start, end [4]sim.Time
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeFlush})
		switch r.ID {
		case 1, 2: // shared holders
			win.Lock(0, false)
			start[r.ID] = r.Now()
			r.Compute(300 * sim.Microsecond)
			end[r.ID] = r.Now()
			win.Unlock(0)
		case 3: // exclusive contender, arrives while the shares are held
			r.Compute(50 * sim.Microsecond)
			win.Lock(0, true)
			start[3] = r.Now()
			r.Compute(100 * sim.Microsecond)
			end[3] = r.Now()
			win.Unlock(0)
		}
		r.Barrier()
		win.Quiesce()
	})
	if !(start[1] < end[2] && start[2] < end[1]) {
		t.Fatalf("shared holders serialized: [%d,%d] vs [%d,%d] (us)",
			start[1]/sim.Microsecond, end[1]/sim.Microsecond,
			start[2]/sim.Microsecond, end[2]/sim.Microsecond)
	}
	for _, s := range []int{1, 2} {
		if start[3] < end[s] && start[s] < end[3] {
			t.Fatalf("exclusive section [%d,%d] overlapped shared section of rank %d [%d,%d] (us)",
				start[3]/sim.Microsecond, end[3]/sim.Microsecond, s,
				start[s]/sim.Microsecond, end[s]/sim.Microsecond)
		}
	}
}

// lock_all and exclusive locks exclude each other through the global
// counter pair, never touching per-target state for lock_all.
func TestFlushModeLockAllExcludesExclusive(t *testing.T) {
	w, rt := testWorld(t, 3)
	var start, end [3]sim.Time
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeFlush})
		switch r.ID {
		case 1:
			win.LockAll()
			start[1] = r.Now()
			r.Compute(300 * sim.Microsecond)
			end[1] = r.Now()
			win.UnlockAll()
		case 2:
			r.Compute(50 * sim.Microsecond)
			win.Lock(0, true) // exclusive: must wait out the lock_all
			start[2] = r.Now()
			r.Compute(100 * sim.Microsecond)
			end[2] = r.Now()
			win.Unlock(0)
		}
		r.Barrier()
		win.Quiesce()
	})
	if start[2] < end[1] && start[1] < end[2] {
		t.Fatalf("exclusive [%d,%d] overlapped lock_all [%d,%d] (us)",
			start[2]/sim.Microsecond, end[2]/sim.Microsecond,
			start[1]/sim.Microsecond, end[1]/sim.Microsecond)
	}
}

// Unlock implies remote completion: after Unlock(t) returns, the put is in
// target memory even without an explicit flush.
func TestFlushModeUnlockImpliesFlush(t *testing.T) {
	w, rt := testWorld(t, 2)
	var got uint64
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeFlush})
		if r.ID == 0 {
			win.Lock(1, true)
			data := make([]byte, 8)
			binary.LittleEndian.PutUint64(data, 77)
			win.Put(1, 0, data, 8)
			win.Unlock(1) // release rides behind an internal IFlush
		}
		r.Barrier()
		if r.ID == 1 {
			got = binary.LittleEndian.Uint64(win.Bytes()[0:8])
		}
		win.Quiesce()
	})
	if got != 77 {
		t.Fatalf("put not remotely complete after Unlock: %d", got)
	}
}

// MPI_MODE_NOCHECK pseudo-locks generate no protocol traffic and release
// instantly; the flush family still provides completion.
func TestFlushModeNoCheckLock(t *testing.T) {
	w, rt := testWorld(t, 2)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeFlush})
		if r.ID == 0 {
			q := win.ILockAssert(1, true, true)
			if !q.Done() {
				t.Error("NOCHECK lock should be pre-completed")
			}
			win.Put(1, 0, make([]byte, 8), 8)
			win.Unlock(1)
			if st := win.FlushState(); st.Held != 0 {
				t.Errorf("NOCHECK lock still held after unlock: %+v", st)
			}
		}
		r.Barrier()
		win.Quiesce()
	})
}

// Epoch synchronizations are rejected on flush-mode windows.
func TestFlushModeRejectsEpochSyncs(t *testing.T) {
	w, rt := testWorld(t, 2)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeFlush})
		if r.ID == 0 {
			win.Fence(0) // epochful: must raise
		}
	})
	if err == nil {
		t.Fatal("fence on a flush-mode window should fail the run")
	}
}

// Flush family over a lossy fabric: drops, duplicates, corruption and
// jitter are all repaired by the go-back-N sublayer, and the flush
// completion counters — driven by the dup-idempotent opLocalDone/
// opDelivered events — still account exactly once per op.
func TestFlushModeLossyFlushCountersDupIdempotent(t *testing.T) {
	fp := fabric.DefaultFaultProfile(4)
	fp.Drop = 0.08
	fp.Dup = 0.07
	fp.Corrupt = 0.02
	fp.Jitter = 2 * sim.Microsecond
	w, rt := faultyWorld(t, 2, fp)
	payload := make([]byte, 1<<12)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	var got []byte
	var fs counts
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1<<12, WinOptions{Mode: ModeFlush})
		if r.ID == 0 {
			win.LockAll()
			for round := 0; round < 8; round++ {
				win.Put(1, 0, payload, int64(len(payload)))
				win.FlushAll()
			}
			win.UnlockAll()
			fs = win.counters()
		}
		r.Barrier()
		if r.ID == 1 {
			got = append([]byte(nil), win.Bytes()...)
		}
		win.Quiesce()
	})
	if err != nil {
		t.Fatalf("lossy flush-mode run failed: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatal("payload corrupted across the lossy fabric")
	}
	if fs[fabDrops] == 0 && fs[fabRetransmits] == 0 {
		t.Errorf("counters show no recovery work on a lossy run: %v", fs)
	}
}

// A dead rank must propagate ErrRankUnreachable through a blocked Flush.
func TestFlushModeDeathFailsBlockedFlush(t *testing.T) {
	fp := fabric.DefaultFaultProfile(3)
	fp.Deaths = []fabric.RankDeath{{Rank: 1, At: 200 * sim.Microsecond}}
	fp.DetectDelay = 250 * sim.Microsecond // declared while the wait below is blocked
	w, rt := faultyWorld(t, 2, fp)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1024, WinOptions{Mode: ModeFlush})
		if r.ID != 0 {
			return // rank 1 goes silent
		}
		r.Compute(300 * sim.Microsecond) // let the death pass first
		win.Put(1, 0, make([]byte, 256), 256)
		win.Flush(1) // must unwind with the error, not hang
		t.Error("Flush returned despite an unreachable target")
	})
	var rma *RMAError
	if !errors.As(err, &rma) {
		t.Fatalf("error %v does not unwrap to *RMAError", err)
	}
	if rma.Class != ErrRankUnreachable {
		t.Fatalf("class = %v, want ERR_RANK_UNREACHABLE (%v)", rma.Class, err)
	}
}

// Same for a blocked FlushAll, and nonblocking calls made afterwards must
// fail their requests with the stored cause.
func TestFlushModeDeathFailsBlockedFlushAll(t *testing.T) {
	fp := fabric.DefaultFaultProfile(5)
	fp.Deaths = []fabric.RankDeath{{Rank: 1, At: 200 * sim.Microsecond}}
	fp.DetectDelay = 250 * sim.Microsecond // declared while the wait below is blocked
	w, rt := faultyWorld(t, 2, fp)
	var postErr error
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 1024, WinOptions{Mode: ModeFlush})
		if r.ID != 0 {
			return
		}
		r.Compute(300 * sim.Microsecond)
		win.Put(1, 0, make([]byte, 256), 256)
		func() {
			defer func() { _ = recover() }() // FlushAll panics with the abort
			win.FlushAll()
			t.Error("FlushAll returned despite an unreachable target")
		}()
		fq := win.IFlush(1) // post-abort nonblocking flush: failed request
		if !fq.Done() {
			t.Error("post-abort IFlush should complete immediately")
		}
		postErr = fq.Err()
	})
	if err != nil {
		t.Fatalf("run failed outside the recovered panic: %v", err)
	}
	var rma *RMAError
	if !errors.As(postErr, &rma) || rma.Class != ErrRankUnreachable {
		t.Fatalf("post-abort IFlush error = %v, want ErrRankUnreachable", postErr)
	}
}

// Flush mode keeps the window's epoch counters untouched — the epochless
// design truly opens zero epochs.
func TestFlushModeOpensNoEpochs(t *testing.T) {
	w, rt := testWorld(t, 2)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeFlush})
		if r.ID == 0 {
			win.Lock(1, true)
			win.Put(1, 0, make([]byte, 8), 8)
			win.Unlock(1)
		}
		r.Barrier()
		st := win.counters()
		if st[cEpochsOpened] != 0 || st[cEpochsCompleted] != 0 {
			t.Errorf("flush mode opened epochs: %+v", st)
		}
		if win.PendingEpochs() != 0 {
			t.Errorf("pending epochs on an epochless window")
		}
		fls := win.FlushState()
		if fls.Held != 0 || fls.Pending != 0 || fls.GlobalX != 0 || fls.GlobalS != 0 || fls.LocalX || fls.LocalS != 0 {
			t.Errorf("lock protocol not clean at teardown: %+v", fls)
		}
		win.Quiesce()
	})
}
