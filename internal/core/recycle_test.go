package core

import (
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestEpochRecycleBothForms pins the three holds of Window.recycle that a
// fault-free steady state never exercises, each as a goroutine-rank and a
// task-rank program: an armed epoch timeout, a closing request the
// application never waited, and an abort. Each case also checks that the
// epoch is reused once its hold ends, where it can end, so the case cannot
// pass by never recycling at all.
func TestEpochRecycleBothForms(t *testing.T) {
	for _, mode := range []Mode{ModeNew, ModeVanilla} {
		t.Run("stale-timer/"+mode.String(), func(t *testing.T) { runForms(t, 2, staleTimerProgram(t, mode)) })
	}
	t.Run("unwaited-close", func(t *testing.T) { runForms(t, 2, unwaitedCloseProgram(t)) })
	for _, tasks := range []bool{false, true} {
		t.Run("aborted", func(t *testing.T) { abortedEpochRun(t, tasks) })
	}
}

// lockPut makes one exclusive lock epoch with a one-byte put toward rank 1
// and reports the epoch to seen right after the open.
func lockPut(win **Window, seen func(*Epoch)) []func() {
	return []func(){
		func() { (*win).Lock(1, true) },
		func() { seen((*win).openAccess[len((*win).openAccess)-1]) },
		func() { (*win).Put(1, 0, []byte{1}, 1) },
		func() { (*win).Unlock(1) },
	}
}

// onFreeList reports whether ep is on its window's free list.
func onFreeList(win *Window, ep *Epoch) bool {
	for f := win.freeEpochs; f != nil; f = f.nextFree {
		if f == ep {
			return true
		}
	}
	return false
}

// staleTimerProgram: epoch A completes at once, but its 20 µs timeout stays
// armed. Epoch B opens before the timer fires and stays open across it, so
// an A recycled as B would be aborted by A's stale timer. A vanilla window
// has not pruned A when the timer fires, and must not free it from the
// pending queue. Once B closed, A is on the free list; later epochs run clean.
func staleTimerProgram(t *testing.T, mode Mode) func(rt *Runtime, r *mpi.Rank) []func() {
	return func(rt *Runtime, r *mpi.Rank) []func() {
		var win *Window
		calls := []func(){func() {
			win = rt.CreateWindow(r, 8, WinOptions{Mode: mode, EpochTimeout: 20 * sim.Microsecond})
		}}
		if r.ID == 0 {
			var a *Epoch
			calls = append(calls, lockPut(&win, func(ep *Epoch) { a = ep })...)
			calls = append(calls,
				func() { win.Lock(1, true) },
				func() {
					if win.openAccess[0] == a {
						t.Error("epoch reused while its timeout was still armed")
					}
				},
				func() { r.Compute(60 * sim.Microsecond) }, // A's timer fires in here
				func() {
					for _, ep := range win.epochs {
						if onFreeList(win, ep) {
							t.Errorf("%s freed while still on the pending queue", ep)
						}
					}
				},
				func() { win.Unlock(1) },
				func() {
					if !onFreeList(win, a) {
						t.Error("epoch not freed once its timeout fired")
					}
				})
			for i := 0; i < 2; i++ { // B may be freed on top of A
				calls = append(calls, lockPut(&win, func(*Epoch) {})...)
			}
			calls = append(calls, func() {
				if s := win.Stats(); win.Err() != nil || s.Timeouts != 0 || s.EpochsAborted != 0 {
					t.Errorf("stale timer aborted a later epoch: err %v, %d timeouts, %d aborted", win.Err(), s.Timeouts, s.EpochsAborted)
				}
			})
		}
		return append(calls, func() { r.Barrier() }, func() { win.Quiesce() })
	}
}

// unwaitedCloseProgram: epoch A is closed with IUnlock and its request is
// left unwaited while three blocking epochs come and go; none of them may be
// A, and A's request stays done and successful. Once Wait hands the request
// back, the next epoch is A.
func unwaitedCloseProgram(t *testing.T) func(rt *Runtime, r *mpi.Rank) []func() {
	return func(rt *Runtime, r *mpi.Rank) []func() {
		var win *Window
		calls := []func(){func() { win = rt.CreateWindow(r, 8, WinOptions{}) }}
		if r.ID == 0 {
			var a *Epoch
			var req *mpi.Request
			notA := func(ep *Epoch) {
				if ep == a {
					t.Error("epoch reused while its closing request was never waited")
				}
			}
			calls = append(calls,
				func() { win.ILock(1, true) },
				func() { a = win.openAccess[0] },
				func() { win.Put(1, 0, []byte{1}, 1) },
				func() { req = win.IUnlock(1) },
				func() { r.Compute(50 * sim.Microsecond) })
			for i := 0; i < 3; i++ {
				calls = append(calls, lockPut(&win, notA)...)
			}
			calls = append(calls,
				func() {
					if !req.Done() || req.Err() != nil {
						t.Errorf("unwaited closing request changed under its caller: done %t, err %v", req.Done(), req.Err())
					}
				},
				func() { r.Wait(req) })
			calls = append(calls, lockPut(&win, func(ep *Epoch) {
				if ep != a {
					t.Error("epoch not reused after Wait handed its closing request back")
				}
			})...)
		}
		return append(calls, func() { r.Barrier() }, func() { win.Quiesce() })
	}
}

// abortedEpochRun: rank 1 dies while rank 0 holds a lock epoch toward it;
// the epoch aborts, and its failed closing request is waited and handed
// back. The aborted epoch must not reach the window's free list, the only
// way to reuse it.
func abortedEpochRun(t *testing.T, tasks bool) {
	w := mpi.NewWorld(2, fabric.DefaultConfig())
	w.Net.EnableFaults(fabric.FaultProfile{
		Deaths:      []fabric.RankDeath{{Rank: 1, At: 50 * sim.Microsecond}},
		DetectDelay: 20 * sim.Microsecond,
	})
	rt := NewRuntime(w)
	err := runForm(w, rt, tasks, func(rt *Runtime, r *mpi.Rank) []func() {
		var win *Window
		calls := []func(){func() { win = rt.CreateWindow(r, 8, WinOptions{}) }}
		if r.ID != 0 {
			return calls
		}
		var a *Epoch
		var req *mpi.Request
		return append(calls,
			func() { win.ILock(1, true) },
			func() { a = win.openAccess[0] },
			func() { r.Compute(200 * sim.Microsecond) }, // rank 1 dies and is declared dead
			func() { req = win.IUnlock(1) },
			func() { r.Wait(req) },
			func() {
				var rma *RMAError
				if !errors.As(req.Err(), &rma) || a.err == nil {
					t.Errorf("tasks=%t: closing request err %v, epoch err %v; want the abort", tasks, req.Err(), a.err)
				}
				if onFreeList(win, a) {
					t.Errorf("tasks=%t: aborted epoch on the free list", tasks)
				}
			})
	})
	if err != nil {
		t.Fatalf("tasks=%t: simulation failed: %v", tasks, err)
	}
}
