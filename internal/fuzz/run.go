package fuzz

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// RunResult captures everything a run exposes for invariant checking.
type RunResult struct {
	Err          error
	Mems         [][][]byte           // [window][rank] final memory
	Wins         [][]*core.Window     // [rank][window]
	Stats        [][]core.WindowStats // [rank][window]
	Events       []trace.Event
	KernelEvents uint64
	Congestion   topo.Summary      // zero on the crossbar
	Faults       []fabric.RelStats // [rank]; nil unless ExecOptions.Faults is set
}

// eventBudget bounds the kernel event count for the watchdog: generously
// above anything a healthy program of this size needs, so only a livelock
// (or a deadlock, which the kernel reports on its own) can exhaust it.
// Faulted runs get 4x headroom — retransmissions, duplicate deliveries,
// dedicated ACK packets and held departures all burn extra events or
// stretch the schedule on healthy executions — and
// topology runs 2x: every internode packet becomes a chain of per-link
// queue/transmit/propagate events instead of one crossbar hop.
func eventBudget(p *Program, lossy bool, kind topo.Kind) uint64 {
	b := 500_000 + 50_000*uint64(p.NRanks*len(p.Rounds)) + 5_000*uint64(p.OpCount())
	if lossy {
		b *= 4
	}
	if kind != topo.Crossbar {
		b *= 2
	}
	return b
}

// TopoSpec derives the seed-varied interconnect shape the campaign runs a
// program over: small switch radixes and tight link credits (the regimes
// where routing, arbitration and bubble flow control actually bite), all a
// pure function of (kind, seed) so failures replay exactly. Crossbar
// returns the zero spec — the fabric's untouched default path.
func TopoSpec(kind topo.Kind, seed uint64) topo.Spec {
	if kind == topo.Crossbar {
		return topo.Spec{}
	}
	// Splitmix-style mixing, offset from LossyProfile's stream so -topo and
	// -lossy never correlate.
	mix := (seed + 0x51ab_c0de) * 0x9e3779b97f4a7c15
	mix ^= mix >> 33
	spec := topo.Spec{Kind: kind}
	spec.LinkCredits = []int{2, 3, 8}[mix%3]
	switch kind {
	case topo.Torus:
		spec.DimX = []int{0, 2, 3}[(mix>>8)%3] // 0: squarest grid
	case topo.FatTree:
		spec.HostsPerLeaf = 1 + int((mix>>8)%2)
		spec.Spines = 1 + int((mix>>16)%3)
	}
	return spec
}

// LossyProfile derives a recoverable-by-construction fault profile for an
// nranks-rank program from a seed: packet loss around 1e-3 plus light
// duplication, corruption, delay jitter and one or two link-flap windows,
// and no death — so every loss is eventually repaired and the
// sequential-memory oracle must still hold. The schedule varies with the
// seed both through the per-copy hashes and through the seed-dependent drop
// rate and windows.
func LossyProfile(seed uint64, nranks int) fabric.FaultProfile {
	fp := fabric.FaultProfile{Seed: seed}
	// Spread the drop rate over [0.5e-3, 1.5e-3] so campaigns sweep a band
	// of loss regimes rather than one point.
	mix := seed * 0x9e3779b97f4a7c15
	mix ^= mix >> 33
	fp.Drop = 1e-3 * (0.5 + float64(mix%1000)/1000.0)
	fp.Dup = 1e-3
	fp.Corrupt = 5e-4
	fp.Jitter = 1 * sim.Microsecond
	// One or two 20 us holds (longer than the ARQ's 16 us timeout) on
	// seed-chosen directed links, early enough to land inside most programs.
	for i := uint64(0); i <= mix>>10%2; i++ {
		m := (mix + i) * 0xbf58476d1ce4e5b9
		m ^= m >> 31
		src := int(m % uint64(nranks))
		fp.Flaps = append(fp.Flaps, fabric.LinkFlap{
			Src:  src,
			Dst:  (src + 1 + int(m>>8%uint64(nranks-1))) % nranks,
			From: sim.Time(m>>16%400) * sim.Microsecond,
			For:  20 * sim.Microsecond,
		})
	}
	return fp
}

// SignalBase derives the counter-replica starting value signal-transport
// campaigns seed every window with: a pure function of the seed, so failures
// replay exactly. Three seeds in four start within 32 steps of the uint64
// wrap — programs open far more than 32 epochs, so the grant/done streams
// cross the boundary mid-run and the serial-number comparison is what keeps
// the algebra working — and the rest pin the plain zero-base case.
func SignalBase(seed uint64) uint64 {
	mix := (seed + 0x5196a1ba5e) * 0x9e3779b97f4a7c15
	mix ^= mix >> 33
	if mix%4 == 0 {
		return 0
	}
	return ^uint64(0) - mix%32
}

// ExecOptions selects what a program executes over; the zero value is the
// pristine crossbar on the serial kernel with GATS control packets.
type ExecOptions struct {
	// Topo routes every internode packet through the seed-derived TopoSpec
	// shape of this kind, under link arbitration and credit flow control.
	Topo topo.Kind
	// Shards > 1 runs on a sharded kernel (mpi.NewWorldShards): the run's
	// every observable — memories, stats, trace, kernel event count — must
	// be bit-identical to the serial execution, which campaign tests pin.
	Shards int
	// Faults, when non-nil, runs the fabric under this adversary.
	Faults *fabric.FaultProfile
	// Signal creates every window as core.TransportSignal with the
	// seed-derived replica base SignalBase(p.Seed); the transport swap must
	// be invisible to the program's observable memory semantics.
	Signal bool
}

// Execute runs the program under the given mode and snapshots the outcome.
// Deadlocks and livelocks surface in RunResult.Err via the kernel watchdog
// instead of hanging the process.
func Execute(p *Program, mode core.Mode) *RunResult {
	return ExecuteWith(p, mode, ExecOptions{})
}

// ExecuteWith is Execute over the fabric, kernel and transport o selects.
// Every rank runs its compiled program (rankProgram) as a task rank.
func ExecuteWith(p *Program, mode core.Mode, o ExecOptions) *RunResult {
	return execute(p, mode, o, true)
}

// execute is ExecuteWith on task ranks or, as the reference the tests pin
// them against, on goroutine ranks.
func execute(p *Program, mode core.Mode, o ExecOptions, tasks bool) *RunResult {
	cfg := fabric.DefaultConfig()
	cfg.ProcsPerNode = p.ProcsPerNode
	cfg.Topo = TopoSpec(o.Topo, p.Seed)
	world := mpi.NewWorldShards(p.NRanks, cfg, o.Shards)
	if o.Faults != nil {
		world.Net.EnableFaults(*o.Faults)
	}
	world.SetWatchdog(eventBudget(p, o.Faults != nil, o.Topo), 0)
	rt := core.NewRuntime(world)
	rec := trace.NewRecorder()
	rt.SetTracer(rec)

	res := &RunResult{Wins: make([][]*core.Window, p.NRanks)}
	// A panic in a rank program becomes the run's error, but core can also
	// raise from NIC/kernel context (e.g. a malformed unlock at a lock
	// agent); recover those here so a fuzzed bug becomes a reported failure
	// with its seed instead of a process abort.
	res.Err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic outside rank context: %v", r)
			}
		}()
		return world.RunProgram(func(r *mpi.Rank) sim.Task {
			res.Wins[r.ID] = make([]*core.Window, len(p.Windows))
			return &rankProgram{r: r, rt: rt, p: p, mode: mode, signal: o.Signal, wins: res.Wins[r.ID], calls: compile(p, mode, r.ID)}
		}, tasks)
	}()

	res.Events = rec.Events()
	res.KernelEvents = world.Events()
	res.Congestion = world.Net.TopoSummary()
	if o.Faults != nil {
		res.Faults = make([]fabric.RelStats, p.NRanks)
		for r := range res.Faults {
			res.Faults[r] = world.Net.RelStats(r)
		}
	}
	if res.Err == nil {
		res.Mems = make([][][]byte, len(p.Windows))
		res.Stats = make([][]core.WindowStats, p.NRanks)
		for wi := range p.Windows {
			res.Mems[wi] = make([][]byte, p.NRanks)
		}
		for r, wins := range res.Wins {
			for wi, win := range wins {
				res.Mems[wi][r] = append([]byte(nil), win.Bytes()...)
				res.Stats[r] = append(res.Stats[r], win.Stats())
			}
		}
	}
	return res
}

// callKind names the MPI call a program record makes. The RMA operations
// are the OpKinds; a synchronization with an I-form comes in a pair, the
// nonblocking kind right above the blocking one.
type callKind uint8

const (
	cFence callKind = iota + callKind(OpCAS) + 1
	cIFence
	cStart
	cIStart
	cComplete
	cIComplete
	cPost
	cIPost
	cWaitEpoch
	cIWait
	cLock
	cILock
	cUnlock
	cIUnlock
	cLockAll
	cILockAll
	cUnlockAll
	cIUnlockAll
	cFlush
	cIFlush
	cFlushAll
	cIFlushAll
	cCreate
	cCompute
	cWaitAll // every kept nonblocking close
	cQuiesce
	cBarrier
)

// call is one MPI call of a rank's program, a small value record: a program
// is one flat slice, and stepping it allocates nothing per call.
type call struct {
	kind      callKind
	noSucceed bool // Fence: the sequence's last
	win       int32
	rd        *Round  // the round, for what the call reads of it: group, lock target, delay
	o         *OpSpec // operations
	mem       []byte  // operations: operand, CAS compare value, result — one allocation the op owns
}

// compile lays out rank me's calls of p under mode: the program is walked
// twice, to count and then to fill, so it is one exact-size allocation.
func compile(p *Program, mode core.Mode, me int) []call {
	n := 0
	layout(p, mode, me, func(call) { n++ })
	cs := make([]call, 0, n)
	layout(p, mode, me, func(c call) {
		if c.o != nil {
			c.mem = opMem(p.Windows[c.win], int(c.win), me, c.o)
		}
		cs = append(cs, c)
	})
	return cs
}

// layout emits rank me's calls of p under mode in program order:
// CreateWindow per window; per round its Compute, synchronizations and
// operations; then Wait for the kept nonblocking closes, Quiesce per window
// and a Barrier. A rank takes the I-forms in the rounds that make it
// nonblocking — never under vanilla, which has none. Flush-mode locks are
// pure mutual exclusion, so their acquire is always awaited before the ops,
// and completion comes from the flush family: an explicit flush before the
// unlock, or the one a blocking unlock_all implies.
func layout(p *Program, mode core.Mode, me int, emit func(call)) {
	for wi := range p.Windows {
		emit(call{kind: cCreate, win: int32(wi)})
	}
	for i := range p.Rounds {
		rd := &p.Rounds[i]
		flush, nb := mode == core.ModeFlush, rd.Nonblocking[me] && mode != core.ModeVanilla
		add := func(k callKind, nb bool, c call) {
			if c.kind, c.win, c.rd = k, int32(rd.Win), rd; nb {
				c.kind++
			}
			emit(c)
		}
		ops := func(ops []OpSpec) {
			for j := range ops {
				add(callKind(ops[j].Kind), false, call{o: &ops[j]})
			}
		}
		if rd.Compute[me] > 0 {
			add(cCompute, false, call{})
		}
		switch {
		case rd.Kind == RFence:
			for ph := 0; ph < rd.Phases; ph++ {
				add(cFence, nb, call{})
				ops(rd.PhaseOps[ph][me])
			}
			add(cFence, nb, call{noSucceed: true})
		case rd.Kind == RGATS && slices.Contains(rd.Origins, me):
			add(cStart, nb, call{})
			ops(rd.Ops[me])
			add(cComplete, nb, call{})
		case rd.Kind == RGATS && slices.Contains(rd.Targets, me):
			add(cPost, nb, call{})
			add(cWaitEpoch, nb, call{})
		case rd.Kind == RLock && rd.LockTarget[me] >= 0:
			add(cLock, nb && !flush, call{})
			ops(rd.Ops[me])
			if flush {
				add(cFlush, nb, call{})
			}
			add(cUnlock, nb, call{})
		case rd.Kind == RLockAll && rd.Member[me]:
			add(cLockAll, nb && !flush, call{})
			ops(rd.Ops[me])
			if flush && !nb {
				add(cFlushAll, false, call{})
			}
			add(cUnlockAll, nb, call{})
		case rd.Kind == RFlush && rd.Member[me]: // the epochless idiom: issue, then flush
			ops(rd.Ops[me])
			add(cFlushAll, nb, call{})
		}
	}
	emit(call{kind: cWaitAll})
	for wi := range p.Windows {
		emit(call{kind: cQuiesce, win: int32(wi)})
	}
	emit(call{kind: cBarrier})
}

// opMem materializes an operation's buffers as one allocation the op owns:
// its operand (a CAS's swap value, then its compare value), then room for
// its result.
func opMem(ws WindowSpec, wi, origin int, o *OpSpec) []byte {
	switch o.Kind {
	case OpPut:
		return putPayload(make([]byte, 0, o.Size), wi, origin, o.Off, o.Size)
	case OpGet:
		return make([]byte, o.Size)
	case OpAcc:
		return accPayload(make([]byte, 0, o.Size), o.Val, o.Size, ws.DT)
	case OpCAS:
		b := binary.LittleEndian.AppendUint64(make([]byte, 0, 24), casSwap(o.Val))[:24]
		if !o.Match {
			binary.LittleEndian.PutUint64(b[8:], ^uint64(0)) // slots are single-use and zero-initialized: never matches
		}
		return b
	}
	return accPayload(make([]byte, 0, 2*o.Size), o.Val, o.Size, ws.DT)[:2*o.Size] // GetAcc, FAO
}

// rankProgram is one rank's compiled program. Step makes the call of one
// record at a time and returns while it is pending (task ranks only), so the
// repeat at the next Step is the identical call.
type rankProgram struct {
	r       *mpi.Rank
	rt      *core.Runtime
	p       *Program
	mode    core.Mode
	signal  bool
	wins    []*core.Window
	calls   []call
	pc      int            // the record to make next
	pending []*mpi.Request // kept nonblocking closes
}

func (x *rankProgram) Step(p *sim.Proc) {
	r := x.r
	for ; x.pc < len(x.calls); x.pc++ {
		c := &x.calls[x.pc]
		win, ws, o := x.wins[c.win], &x.p.Windows[c.win], c.o
		assert := core.AssertNone
		if c.noSucceed {
			assert = core.AssertNoSucceed
		}
		var closed *mpi.Request // a nonblocking close's request, kept for cWaitAll
		switch c.kind {
		case callKind(OpPut):
			win.Put(o.Target, o.Off, c.mem, o.Size)
		case callKind(OpGet):
			win.Get(o.Target, o.Off, c.mem, o.Size)
		case callKind(OpAcc):
			win.Accumulate(o.Target, o.Off, ws.Op, ws.DT, c.mem, o.Size)
		case callKind(OpGetAcc):
			op := ws.Op
			if o.NoOp {
				op = core.OpNoOp
			}
			win.GetAccumulate(o.Target, o.Off, op, ws.DT, c.mem[:o.Size:o.Size], c.mem[o.Size:], o.Size)
		case callKind(OpFAO):
			win.FetchAndOp(o.Target, o.Off, ws.Op, ws.DT, c.mem[:o.Size:o.Size], c.mem[o.Size:])
		case callKind(OpCAS):
			win.CompareAndSwap(o.Target, o.Off, core.TUint64, c.mem[8:16:16], c.mem[:8:8], c.mem[16:])
		case cFence:
			win.Fence(assert)
		case cIFence:
			closed = win.IFence(assert)
		case cStart:
			win.Start(c.rd.Targets)
		case cIStart:
			win.IStart(c.rd.Targets)
		case cComplete:
			win.Complete()
		case cIComplete:
			closed = win.IComplete()
		case cPost:
			win.Post(c.rd.Origins)
		case cIPost:
			win.IPost(c.rd.Origins)
		case cWaitEpoch:
			win.WaitEpoch()
		case cIWait:
			closed = win.IWait()
		case cLock:
			win.Lock(c.rd.LockTarget[r.ID], !c.rd.LockShared[r.ID])
		case cILock:
			win.ILock(c.rd.LockTarget[r.ID], !c.rd.LockShared[r.ID])
		case cUnlock:
			win.Unlock(c.rd.LockTarget[r.ID])
		case cIUnlock:
			closed = win.IUnlock(c.rd.LockTarget[r.ID])
		case cLockAll:
			win.LockAll()
		case cILockAll:
			win.ILockAll()
		case cUnlockAll:
			win.UnlockAll()
		case cIUnlockAll:
			closed = win.IUnlockAll()
		case cFlush:
			win.Flush(c.rd.LockTarget[r.ID])
		case cIFlush:
			closed = win.IFlush(c.rd.LockTarget[r.ID])
		case cFlushAll:
			win.FlushAll()
		case cIFlushAll:
			closed = win.IFlushAll()
		case cCreate:
			opt := core.WinOptions{Mode: x.mode, Info: ws.Info}
			if x.signal {
				opt.Transport, opt.SignalBase = core.TransportSignal, SignalBase(x.p.Seed)
			}
			x.wins[c.win] = x.rt.CreateWindow(r, ws.TotalSize(x.p.NRanks), opt)
		case cCompute:
			r.Compute(sim.Time(c.rd.Compute[r.ID]))
		case cWaitAll:
			r.Wait(x.pending...)
		case cQuiesce:
			win.Quiesce()
		case cBarrier:
			r.Barrier()
		}
		if r.Pending() {
			return
		}
		if closed != nil {
			x.pending = append(x.pending, closed)
		}
	}
	p.TaskExit()
}
