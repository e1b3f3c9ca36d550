package kvstore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/prog"
)

// requestMallocs is the heap objects one steady-state kv write costs — an
// exclusive lock, a NoOp GetAccumulate of the slot, a flush, a max-accumulate
// and the unlock, with the epoch timeout armed — on task ranks in mode, made
// by each of clients ranks on the same slot of rank 0: the objects of a
// 2n-request run minus those of an n-request run, per request, which cancels
// world and window construction.
func requestMallocs(mode core.Mode, clients int) float64 {
	const n = 200
	buf := make([]byte, 3*slotBytes)
	body := []prog.Call{
		{Kind: prog.Lock, Flag: true},
		{Kind: prog.GetAcc, Op: uint8(core.OpNoOp), DT: uint8(core.TInt64), Size: slotBytes, Buf: buf[:2*slotBytes]},
		{Kind: prog.Flush},
		{Kind: prog.Acc, Op: uint8(core.OpMax), DT: uint8(core.TInt64), Size: slotBytes, Buf: buf[2*slotBytes:]},
		{Kind: prog.Unlock},
	}
	run := func(requests int) func() {
		return func() {
			w := mpi.NewWorld(1+clients, fabric.DefaultConfig())
			r := prog.NewRun(w, prog.Window{Size: slotBytes, Opt: core.WinOptions{
				Mode: mode, EpochTimeout: epochTimeout, ErrorsReturn: true}})
			err := r.Exec(func(rk *mpi.Rank) prog.Program {
				pg := prog.Program{Pre: []prog.Call{{Kind: prog.Create}}}
				if rk.ID > 0 {
					pg.Body, pg.Iters = body, requests
				}
				return pg
			}, true)
			if err != nil {
				panic(err)
			}
		}
	}
	return (testing.AllocsPerRun(1, run(2*n)) - testing.AllocsPerRun(1, run(n))) / float64(n*clients)
}

// One kv write allocates its epoch — in flush mode, the lock protocol's
// acquire and release, one object each — and the target's fetch snapshot:
// no timeout closure, no per-call request, no flush hook, and no closure per
// conditional atomic that two contending clients retry.
func TestKVRequestAllocs(t *testing.T) {
	for _, c := range []struct {
		mode    core.Mode
		clients int
		budget  float64
	}{{core.ModeNew, 1, 2}, {core.ModeVanilla, 1, 2}, {core.ModeFlush, 1, 3}, {core.ModeFlush, 2, 3}} {
		got := requestMallocs(c.mode, c.clients)
		t.Logf("%-7s x%d %.2f objects per request (budget %.0f)", c.mode, c.clients, got, c.budget)
		if got > c.budget+0.5 {
			t.Errorf("%s x%d: %.2f heap objects per kv request, budget %.0f", c.mode, c.clients, got, c.budget)
		}
	}
}
