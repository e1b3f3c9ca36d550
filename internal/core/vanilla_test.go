package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestVanillaUnlockBothForms runs vanilla's lazy passive epochs as
// goroutine-rank and as task-rank programs on 3 ranks. Each close is one
// resumable call: the repeat of an Unlock pending in its drain resumes the
// drain stage it had reached, and an UnlockAll resumes its incremental
// drain. Every rank locks the same target exclusively, so the unlocks queue
// behind each other's grants and really are pending on task ranks.
func TestVanillaUnlockBothForms(t *testing.T) {
	const n = 3
	t.Run("lock", func(t *testing.T) {
		runForms(t, n, func(rt *Runtime, r *mpi.Rank) []func() {
			var win *Window
			one := make([]byte, 8)
			binary.LittleEndian.PutUint64(one, uint64(r.ID+1))
			return []func(){
				func() { win = rt.CreateWindow(r, 64, WinOptions{Mode: ModeVanilla}) },
				func() { win.Lock(0, true) },
				func() { win.Accumulate(0, 0, OpSum, TUint64, one, 8) },
				func() { win.Unlock(0) },
				func() { r.Barrier() },
				func() {
					if got := binary.LittleEndian.Uint64(win.Bytes()); r.ID == 0 && got != 1+2+3 {
						t.Errorf("rank 0 holds %d after the locked sums, want 6", got)
					}
				},
			}
		})
	})
	t.Run("lock_all", func(t *testing.T) {
		runForms(t, n, func(rt *Runtime, r *mpi.Rank) []func() {
			var win *Window
			mark := []byte{byte(r.ID + 1)}
			calls := []func(){
				func() { win = rt.CreateWindow(r, n, WinOptions{Mode: ModeVanilla}) },
				func() { win.LockAll() },
			}
			for tgt := 0; tgt < n; tgt++ {
				calls = append(calls, func() { win.Put(tgt, int64(r.ID), mark, 1) })
			}
			return append(calls,
				func() { win.UnlockAll() },
				func() { r.Barrier() },
				func() {
					if got := win.Bytes(); string(got) != "\x01\x02\x03" {
						t.Errorf("rank %d window %v after every rank's puts, want [1 2 3]", r.ID, got)
					}
				})
		})
	})
}

// TestVanillaUnlockDeadTargetBothForms pins the abort path of the resumable
// unlock: a target declared dead before the unlock lazily activates the
// epoch makes both forms raise the same *RMAError.
func TestVanillaUnlockDeadTargetBothForms(t *testing.T) {
	run := func(tasks bool) error {
		fp := fabric.DefaultFaultProfile(1)
		fp.Deaths = []fabric.RankDeath{{Rank: 2, At: 100 * sim.Microsecond}}
		fp.DetectDelay = 100 * sim.Microsecond
		w, rt := faultyWorld(t, 3, fp)
		return runForm(w, rt, tasks, func(rt *Runtime, r *mpi.Rank) []func() {
			var win *Window
			calls := []func(){
				func() { win = rt.CreateWindow(r, 64, WinOptions{Mode: ModeVanilla, ShapeOnly: true}) },
			}
			if r.ID == 2 {
				return calls // goes silent
			}
			return append(calls,
				func() { win.Lock(2, true) },
				func() { win.Accumulate(2, 0, OpSum, TUint64, nil, 8) },
				func() { r.Compute(300 * sim.Microsecond) }, // past the declaration
				func() { win.Unlock(2) },
				func() { t.Errorf("rank %d: Unlock toward a dead target returned", r.ID) })
		})
	}
	gor, task := run(false), run(true)
	var rma *RMAError
	if !errors.As(gor, &rma) || rma.Class != ErrRankUnreachable || rma.Peer != 2 {
		t.Fatalf("goroutine ranks: error %v, want ERR_RANK_UNREACHABLE toward 2", gor)
	}
	if !errors.As(task, &rma) || task.Error() != gor.Error() {
		t.Fatalf("execution forms raise different errors:\n goroutine %v\n task      %v", gor, task)
	}
}
