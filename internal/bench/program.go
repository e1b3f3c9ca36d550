package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/prog"
	"repro/internal/sim"
)

// pattern is one cell of the small-world figures — Figs 2-11, Modes,
// Signal, the §VIII-A tables and the fault sweep: a world of len(lists)
// ranks in which every rank opens one shape-only window, makes iters passes
// over its own list of records, built once per cell, and quiesces.
type pattern struct {
	winSize  int64           // window bytes per rank (0: BigMsg)
	opt      core.WinOptions // ShapeOnly is implied
	channels int             // NIC rails (0: the calibration's)
	faults   *fabric.FaultProfile
	iters    int
	lists    [][]op // rank i's records, one pass per iteration
}

// op is one record of a rank program.
type op = prog.Call

// The records, by the call they make. A closing I-form's request is kept
// for the next Wait, which waits every kept request.
var (
	create     = op{Kind: prog.Create}
	quiesce    = op{Kind: prog.Quiesce}
	barrier    = op{Kind: prog.Barrier}
	stamp      = op{Kind: prog.Stamp}
	complete   = op{Kind: prog.Complete}
	icomplete  = op{Kind: prog.IComplete}
	waitEpoch  = op{Kind: prog.WaitEpoch}
	iwait      = op{Kind: prog.IWait}
	wait       = op{Kind: prog.Wait}
	stampDone  = op{Kind: prog.StampDone}  // the newest kept request's completion
	sampleDone = op{Kind: prog.SampleDone} // into slot 0
)

func compute(d sim.Time) op        { return op{Kind: prog.Compute, Size: d} }
func start(group int) op           { return op{Kind: prog.Start, Arg: int32(group)} }
func istart(group int) op          { return op{Kind: prog.IStart, Arg: int32(group)} }
func post(group int) op            { return op{Kind: prog.Post, Arg: int32(group)} }
func ipost(group int) op           { return op{Kind: prog.IPost, Arg: int32(group)} }
func fence(a core.FenceAssert) op  { return op{Kind: prog.Fence, Flag: a == core.AssertNoSucceed} }
func ifence(a core.FenceAssert) op { return op{Kind: prog.IFence, Flag: a == core.AssertNoSucceed} }
func lock(peer int, excl bool) op  { return op{Kind: prog.Lock, Peer: int32(peer), Flag: excl} }
func ilock(peer int, excl bool) op { return op{Kind: prog.ILock, Peer: int32(peer), Flag: excl} }
func unlock(peer int) op           { return op{Kind: prog.Unlock, Peer: int32(peer)} }
func iunlock(peer int) op          { return op{Kind: prog.IUnlock, Peer: int32(peer)} }
func put(peer int, size int64) op  { return op{Kind: prog.Put, Peer: int32(peer), Size: size} }
func send(peer int, size int64) op { return op{Kind: prog.Send, Peer: int32(peer), Size: size} }
func recv(peer int) op             { return op{Kind: prog.Recv, Peer: int32(peer)} }
func sample(slot int) op           { return op{Kind: prog.Sample, Arg: int32(slot)} }
func acc(peer int, size int64) op {
	return op{Kind: prog.Acc, Op: uint8(core.OpSum), DT: uint8(core.TUint64), Peer: int32(peer), Size: size}
}

// oneRank is a pattern's groups, each named by the one rank in it: start(p)
// and post(p) name oneRank[p]. Core copies a group, so every rank of every
// cell shares these.
var oneRank = [][]int{{0}, {1}, {2}, {3}}

// The prologue and epilogue of every pattern rank.
var (
	createOnly  = []op{create}
	quiesceOnly = []op{quiesce}
)

// measure runs the pattern on task ranks and returns each slot's mean, in
// microseconds.
func (pt pattern) measure() []float64 {
	run := pt.run(true)
	out := make([]float64, len(run.Samples))
	for i, s := range run.Samples {
		out[i] = mean(s)
	}
	return out
}

// run runs the pattern on a fresh world — sharded across Shards() kernels
// when the -shards flag is set, bit-identical either way — as task ranks or
// as coroutine ranks (prog.Run.Exec), and panics on a simulation error (a
// deadlock is a bug). The run's samples are by slot: each slot is sampled by
// one rank, once per pass.
func (pt pattern) run(tasks bool) *prog.Run {
	cfg := Config()
	if pt.channels > 0 {
		cfg.Channels = pt.channels
	}
	if pt.winSize == 0 {
		pt.winSize = BigMsg
	}
	pt.opt.ShapeOnly = true
	slots := 0
	for _, l := range pt.lists {
		for _, c := range l {
			if c.Kind == prog.Sample || c.Kind == prog.SampleDone {
				slots = max(slots, int(c.Arg)+1)
			}
		}
	}
	world := mpi.NewWorldShards(len(pt.lists), cfg, Shards())
	if pt.faults != nil {
		world.Net.EnableFaults(*pt.faults)
	}
	run := prog.NewRun(world, prog.Window{Size: pt.winSize, Opt: pt.opt})
	run.Slots(slots, pt.iters)
	err := run.Exec(func(r *mpi.Rank) prog.Program {
		return prog.Program{Pre: createOnly, Body: pt.lists[r.ID], Post: quiesceOnly, Iters: pt.iters, Groups: oneRank}
	}, tasks)
	if err != nil {
		panic(fmt.Sprintf("bench: simulation failed: %v", err))
	}
	return run
}
