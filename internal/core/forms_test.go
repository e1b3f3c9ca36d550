package core

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestBlockingCallsBothForms runs every blocking call that waits in more
// than one place — the flush family, Fence, Free and the two-sided
// SendMsg/RecvMsg — as goroutine-rank and as task-rank programs, in every
// mode where the call exists. Each call resumes at the wait it had reached,
// so the two executions end at the same virtual time after the same events,
// with the same MPI time on every rank (runForms), and leave the same memory.
func TestBlockingCallsBothForms(t *testing.T) {
	for _, mode := range []Mode{ModeNew, ModeVanilla, ModeFlush} {
		t.Run("flush/"+mode.String(), func(t *testing.T) { runForms(t, 4, flushProgram(t, mode)) })
	}
	for _, mode := range []Mode{ModeNew, ModeVanilla} {
		t.Run("fence/"+mode.String(), func(t *testing.T) { runForms(t, 3, fenceProgram(t, mode)) })
	}
	t.Run("sendrecv", func(t *testing.T) {
		big := bytes.Repeat([]byte{7}, mpi.EagerThreshold+1)
		runForms(t, 2, func(rt *Runtime, r *mpi.Rank) []func() {
			if r.ID == 0 {
				return []func(){
					func() { r.SendMsg(1, 1, []byte("eager"), 5) },
					func() { r.SendMsg(1, 2, big, int64(len(big))) },
				}
			}
			var eager, rndv []byte
			return []func(){
				func() { r.Compute(10 * sim.Microsecond) }, // the rendezvous send waits for the receive
				func() { eager = r.RecvMsg(0, 1) },
				func() { rndv = r.RecvMsg(0, 2) },
				func() {
					if string(eager) != "eager" || !bytes.Equal(rndv, big) {
						t.Errorf("received %q and %d bytes, want \"eager\" and the %d-byte rendezvous payload", eager, len(rndv), len(big))
					}
				},
			}
		})
	})
}

// flushProgram has origins 2 and 3 hold exclusive locks on targets 0 and 1
// at once (AAAR lets the new design's two lock epochs run together) and
// drive every blocking flush over them, then the same under lock_all. The
// origins contend for each lock, so on vanilla windows a flush forces a lazy
// lock that is not yet granted — the second origin's FlushAll pends on its
// second epoch's grant, past a first it already holds.
func flushProgram(t *testing.T, mode Mode) func(rt *Runtime, r *mpi.Rank) []func() {
	return func(rt *Runtime, r *mpi.Rank) []func() {
		var win *Window
		me := int64(r.ID)
		val := []byte{byte(r.ID + 1)}
		calls := []func(){func() { win = rt.CreateWindow(r, 16, WinOptions{Mode: mode, Info: Info{AAAR: true}}) }}
		if r.ID >= 2 {
			calls = append(calls,
				func() { win.Lock(0, true) },
				func() { win.Lock(1, true) },
				func() { win.Put(0, me, val, 1) },
				func() { win.Put(1, me, val, 1) },
				func() { win.Flush(0) },
				func() { win.FlushAll() },
				func() { win.Put(0, 4+me, val, 1) },
				func() { win.FlushLocal(0) },
				func() { win.Put(1, 4+me, val, 1) },
				func() { win.FlushLocalAll() },
				func() { win.Unlock(0) },
				func() { win.Unlock(1) })
		}
		// The lock_all phase starts once every exclusive lock is released: a
		// lazy FlushAll acquires one target at a time, so a lock_all holder
		// and an exclusive holder would each wait for the other's target.
		calls = append(calls, func() { r.Barrier() })
		if r.ID >= 2 {
			calls = append(calls,
				func() { win.LockAll() },
				func() { win.Put(0, 8+me, val, 1) },
				func() { win.Put(1, 8+me, val, 1) },
				func() { win.FlushAll() },
				func() { win.FlushLocalAll() },
				func() { win.UnlockAll() })
		}
		return append(calls,
			func() { r.Barrier() },
			func() {
				want := []byte{0, 0, 3, 4, 0, 0, 3, 4, 0, 0, 3, 4, 0, 0, 0, 0}
				if r.ID < 2 && !bytes.Equal(win.Bytes(), want) {
					t.Errorf("target %d window %v, want %v", r.ID, win.Bytes(), want)
				}
			},
			func() { win.Quiesce() })
	}
}

// fenceProgram is two fence-separated put phases on staggered ranks, closed
// with AssertNoSucceed, then Free.
func fenceProgram(t *testing.T, mode Mode) func(rt *Runtime, r *mpi.Rank) []func() {
	return func(rt *Runtime, r *mpi.Rank) []func() {
		var win *Window
		n, me := r.Size(), r.ID
		val := []byte{byte(me + 1)}
		return []func(){
			func() { win = rt.CreateWindow(r, 8, WinOptions{Mode: mode}) },
			func() { r.Compute(sim.Time(me) * 5 * sim.Microsecond) },
			func() { win.Fence(AssertNone) },
			func() { win.Put((me+1)%n, int64(me), val, 1) },
			func() { win.Fence(AssertNone) },
			func() { win.Put((me+2)%n, 4+int64(me), val, 1) },
			func() { win.Fence(AssertNoSucceed) },
			func() {
				b := win.Bytes()
				if from1, from2 := (me+n-1)%n, (me+n-2)%n; b[from1] != byte(from1+1) || b[4+from2] != byte(from2+1) {
					t.Errorf("rank %d window %v misses the puts of ranks %d and %d", me, b, from1, from2)
				}
			},
			func() { win.Free() },
		}
	}
}

// TestRequestOpsBothForms: a request-based op mints its request after the
// call's charge, so a call pending on a task rank returns nil and its repeat
// returns the one request — one request per call in both rank forms, each
// completed by the unlock.
func TestRequestOpsBothForms(t *testing.T) {
	runForms(t, 2, func(rt *Runtime, r *mpi.Rank) []func() {
		var win *Window
		var reqs []*mpi.Request
		buf, res := make([]byte, 8), make([]byte, 8)
		call := func(issue func() *mpi.Request) func() {
			return func() {
				q := issue()
				switch {
				case r.Pending() && q != nil:
					t.Error("pending request-based call returned a request")
				case !r.Pending() && q == nil:
					t.Error("request-based call returned no request")
				case q != nil:
					reqs = append(reqs, q)
				}
			}
		}
		calls := []func(){func() { win = rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew}) }}
		if r.ID == 0 {
			calls = append(calls,
				func() { win.Lock(1, true) },
				call(func() *mpi.Request { return win.RPut(1, 0, buf, 8) }),
				call(func() *mpi.Request { return win.RGet(1, 8, res, 8) }),
				call(func() *mpi.Request { return win.RAccumulate(1, 16, OpSum, TUint64, buf, 8) }),
				call(func() *mpi.Request { return win.RGetAccumulate(1, 24, OpSum, TUint64, buf, res, 8) }),
				func() { win.Unlock(1) },
				func() {
					if len(reqs) != 4 {
						t.Errorf("%d requests for 4 request-based calls", len(reqs))
					}
					for i, q := range reqs {
						if !q.Done() || q.Err() != nil {
							t.Errorf("request %d: done=%t err=%v after the unlock", i, q.Done(), q.Err())
						}
					}
				})
		}
		return append(calls, func() { win.Quiesce() }, func() { r.Barrier() })
	})
}

// TestTestEpochChargesOnce pins MPI_WIN_TEST as one call: a TestEpoch that
// finds the exposure incomplete costs exactly one call overhead, in both
// execution forms.
func TestTestEpochChargesOnce(t *testing.T) {
	overhead := fabric.DefaultConfig().CallOverhead
	runForms(t, 2, func(rt *Runtime, r *mpi.Rank) []func() {
		var win *Window
		calls := []func(){func() { win = rt.CreateWindow(r, 8, WinOptions{Mode: ModeNew}) }}
		if r.ID == 0 {
			return append(calls,
				func() { r.Compute(20 * sim.Microsecond) },
				func() { win.Start([]int{1}) },
				func() { win.Put(1, 0, []byte{1}, 1) },
				func() { win.Complete() })
		}
		var t0 sim.Time
		var done bool
		return append(calls,
			func() { win.Post([]int{0}) },
			func() { t0 = r.Now() },
			func() { done = win.TestEpoch() },
			func() {
				if d := r.Now() - t0; done || d != overhead {
					t.Errorf("TestEpoch took %d ns and returned %t, want %d ns and false", d, done, overhead)
				}
			},
			func() { win.WaitEpoch() })
	})
}
