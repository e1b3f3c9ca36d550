package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// pattern is one cell of the small-world figures — Figs 2-11, Modes,
// Signal, the §VIII-A tables and the fault sweep: a world of len(lists)
// ranks in which every rank opens one shape-only window, makes iters passes
// over its own list of calls, and quiesces. A list is value records, one per
// call, built once per cell; one Step switch walks it (patternProgram).
type pattern struct {
	winSize  int64           // window bytes per rank (0: BigMsg)
	opt      core.WinOptions // ShapeOnly is implied
	channels int             // NIC rails (0: the calibration's)
	faults   *fabric.FaultProfile
	iters    int
	lists    [][]op // rank i's calls, one pass per iteration
}

// op is one call of a rank's pass, a small value record.
type op struct {
	kind      opKind
	exclusive bool             // Lock, ILock
	assert    core.FenceAssert // Fence, IFence
	slot      int              // the kept request (I-closes), the sample's slot, or a Put's chunk index
	peer      int              // the one-rank group, lock target or message peer
	size      int64
	work      sim.Time // Compute
}

// opKind names the call a record makes.
type opKind uint8

const (
	oBarrier opKind = iota
	oStamp          // no call: the pass's time origin
	oCompute
	oStart
	oIStart
	oPost
	oIPost
	oComplete
	oIComplete
	oWaitEpoch
	oIWait
	oFence
	oIFence
	oLock
	oILock
	oUnlock
	oIUnlock
	oPut // Put(peer, slot*size, size)
	oAcc // Accumulate(peer, 0, sum, uint64, size)
	oSend
	oRecv
	oWait       // Wait on every kept request
	oStampDone  // no call: stamp the time the request kept in slot completes
	oSample     // no call: sample now - origin into slot
	oSampleDone // no call: sample the stamped time - origin into slot
)

// The records, by the call they make. An I-close keeps its request in slot
// for the next Wait; no other call's request is kept.
var (
	barrier   = op{kind: oBarrier}
	stamp     = op{kind: oStamp}
	complete  = op{kind: oComplete}
	waitEpoch = op{kind: oWaitEpoch}
	wait      = op{kind: oWait}
)

func compute(d sim.Time) op             { return op{kind: oCompute, work: d} }
func start(peer int) op                 { return op{kind: oStart, peer: peer} }
func istart(peer int) op                { return op{kind: oIStart, peer: peer} }
func post(peer int) op                  { return op{kind: oPost, peer: peer} }
func ipost(peer int) op                 { return op{kind: oIPost, peer: peer} }
func icomplete(slot int) op             { return op{kind: oIComplete, slot: slot} }
func iwait(slot int) op                 { return op{kind: oIWait, slot: slot} }
func fence(a core.FenceAssert) op       { return op{kind: oFence, assert: a} }
func ifence(a core.FenceAssert) op      { return op{kind: oIFence, assert: a} }
func lock(peer int, exclusive bool) op  { return op{kind: oLock, peer: peer, exclusive: exclusive} }
func ilock(peer int, exclusive bool) op { return op{kind: oILock, peer: peer, exclusive: exclusive} }
func unlock(peer int) op                { return op{kind: oUnlock, peer: peer} }
func iunlock(peer, slot int) op         { return op{kind: oIUnlock, peer: peer, slot: slot} }
func put(peer int, size int64) op       { return op{kind: oPut, peer: peer, size: size} }
func acc(peer int, size int64) op       { return op{kind: oAcc, peer: peer, size: size} }
func send(peer int, size int64) op      { return op{kind: oSend, peer: peer, size: size} }
func recv(peer int) op                  { return op{kind: oRecv, peer: peer} }
func sample(slot int) op                { return op{kind: oSample, slot: slot} }

// msgTag tags the two-sided messages of the pattern programs.
const msgTag = 7

// rankIDs holds every one-rank group a pattern names: peer p's group is
// rankIDs[p : p+1]. Core copies a group, so every rank of every cell shares
// these.
var rankIDs = []int{0, 1, 2, 3}

func group(peer int) []int { return rankIDs[peer : peer+1] }

// patternRun is a pattern that has run: its world, every rank's window, and
// the samples, by slot — each slot is sampled by one rank, once per pass.
type patternRun struct {
	pattern
	world   *mpi.World
	rt      *core.Runtime
	wins    []*core.Window
	samples [][]sim.Time
}

// measure runs the pattern on task ranks and returns each slot's mean, in
// microseconds.
func (pt pattern) measure() []float64 {
	run := pt.run(true)
	out := make([]float64, len(run.samples))
	for i, s := range run.samples {
		out[i] = mean(s)
	}
	return out
}

// run runs the pattern on a fresh world — sharded across Shards() kernels
// when the -shards flag is set, bit-identical either way — as task ranks or
// as goroutine ranks (mpi.World.RunProgram), and panics on a simulation
// error (a deadlock is a bug).
func (pt pattern) run(tasks bool) *patternRun {
	cfg := Config()
	if pt.channels > 0 {
		cfg.Channels = pt.channels
	}
	if pt.winSize == 0 {
		pt.winSize = BigMsg
	}
	pt.opt.ShapeOnly = true
	n, slots := len(pt.lists), 0
	for _, l := range pt.lists {
		for _, o := range l {
			if o.kind == oSample || o.kind == oSampleDone {
				slots = max(slots, o.slot+1)
			}
		}
	}
	run := &patternRun{pattern: pt, world: mpi.NewWorldShards(n, cfg, Shards()),
		wins: make([]*core.Window, n), samples: make([][]sim.Time, slots)}
	for i := range run.samples {
		run.samples[i] = make([]sim.Time, 0, pt.iters)
	}
	if pt.faults != nil {
		run.world.Net.EnableFaults(*pt.faults)
	}
	run.rt = core.NewRuntime(run.world)
	err := run.world.RunProgram(func(r *mpi.Rank) sim.Task {
		return &patternProgram{run: run, r: r, ops: pt.lists[r.ID]}
	}, tasks)
	if err != nil {
		panic(fmt.Sprintf("bench: simulation failed: %v", err))
	}
	return run
}

// patternProgram is one rank's pattern program, the shape of fuzz's
// rankProgram: CreateWindow, iters passes over ops, Quiesce. Step makes one
// record's call at a time and returns while it is pending (task ranks only),
// so the repeat at the next Step is the identical call; a request is kept
// only once its call is not pending.
type patternProgram struct {
	run *patternRun
	r   *mpi.Rank
	ops []op

	win       *core.Window // nil until CreateWindow completes
	it, pc    int          // completed passes; the record to make next
	t0, done  sim.Time     // the pass's origin; the stamped request's completion
	kept      [2]*mpi.Request
	stampDone func() // sets done; bound once, on first use
}

func (t *patternProgram) Step(p *sim.Proc) {
	r, run := t.r, t.run
	if t.win == nil {
		if t.win = run.rt.CreateWindow(r, run.winSize, run.opt); r.Pending() {
			return
		}
		run.wins[r.ID] = t.win
	}
	win := t.win
	for ; t.it < run.iters; t.it, t.pc = t.it+1, 0 {
		for ; t.pc < len(t.ops); t.pc++ {
			o := &t.ops[t.pc]
			var kept *mpi.Request
			switch o.kind {
			case oBarrier:
				r.Barrier()
			case oStamp:
				t.t0 = r.Now()
			case oCompute:
				r.Compute(o.work)
			case oStart:
				win.Start(group(o.peer))
			case oIStart:
				win.IStart(group(o.peer))
			case oPost:
				win.Post(group(o.peer))
			case oIPost:
				win.IPost(group(o.peer))
			case oComplete:
				win.Complete()
			case oIComplete:
				kept = win.IComplete()
			case oWaitEpoch:
				win.WaitEpoch()
			case oIWait:
				kept = win.IWait()
			case oFence:
				win.Fence(o.assert)
			case oIFence:
				kept = win.IFence(o.assert)
			case oLock:
				win.Lock(o.peer, o.exclusive)
			case oILock:
				win.ILock(o.peer, o.exclusive)
			case oUnlock:
				win.Unlock(o.peer)
			case oIUnlock:
				kept = win.IUnlock(o.peer)
			case oPut:
				win.Put(o.peer, int64(o.slot)*o.size, nil, o.size)
			case oAcc:
				win.Accumulate(o.peer, 0, core.OpSum, core.TUint64, nil, o.size)
			case oSend:
				r.SendMsg(o.peer, msgTag, nil, o.size)
			case oRecv:
				r.RecvMsg(o.peer, msgTag)
			case oWait:
				r.Wait(t.kept[0], t.kept[1])
			case oStampDone:
				if t.stampDone == nil {
					t.stampDone = func() { t.done = r.Now() }
				}
				t.kept[o.slot].OnComplete(t.stampDone)
			case oSample, oSampleDone:
				end := r.Now()
				if o.kind == oSampleDone {
					end = t.done
				}
				run.samples[o.slot] = append(run.samples[o.slot], end-t.t0)
			}
			if r.Pending() {
				return
			}
			if kept != nil {
				t.kept[o.slot] = kept
			}
		}
	}
	if win.Quiesce(); r.Pending() {
		return
	}
	p.TaskExit()
}
