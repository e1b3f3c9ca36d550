package fuzz

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// RunResult captures everything a run exposes for invariant checking.
type RunResult struct {
	Err          error
	Mems         [][][]byte       // [window][rank] final memory
	Wins         [][]*core.Window // [rank][window]
	Spans        []trace.Span     // one per epoch, Parts filled
	KernelEvents uint64
	Counters     *metrics.Set // the world's counters of every layer
	// Fetched is, per rank in program order, the result bytes of every Get,
	// GetAccumulate, FetchAndOp and CompareAndSwap: views of the operations'
	// own buffers.
	Fetched [][][]byte
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
// and no death — so every loss is eventually repaired and the memory
// oracle must still hold. The schedule varies with the
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

// Execute is ExecuteWith on the pristine arm, kept for the benchmark
// harness (benchmarks/drivers.go).
func Execute(p *Program, mode core.Mode) *RunResult { return ExecuteWith(p, mode, Arm{}) }

// ExecuteWith runs the program under mode over the fabric, kernel and
// transport arm a selects (a.KV does not apply) and snapshots the outcome.
// Every rank runs its compiled program (compile) as a task rank. Deadlocks
// and livelocks surface in RunResult.Err via the kernel watchdog instead of
// hanging the process.
func ExecuteWith(p *Program, mode core.Mode, a Arm) *RunResult { return execute(p, mode, a, nil, true) }

// execute is ExecuteWith on task ranks or, as the reference the tests pin
// them against, on coroutine ranks. faults, when non-nil, is the fabric's
// adversary in place of the one a derives: a hand-written schedule.
func execute(p *Program, mode core.Mode, a Arm, faults *fabric.FaultProfile, tasks bool) *RunResult {
	if faults == nil && a.Lossy {
		fp := LossyProfile(p.Seed, p.NRanks)
		faults = &fp
	}
	cfg := fabric.DefaultConfig()
	cfg.ProcsPerNode = p.ProcsPerNode
	cfg.Topo = TopoSpec(a.Topo, p.Seed)
	world := mpi.NewWorldShards(p.NRanks, cfg, a.Shards)
	if faults != nil {
		world.Net.EnableFaults(*faults)
	}
	world.SetWatchdog(eventBudget(p, faults != nil, a.Topo), 0)
	windows := make([]prog.Window, len(p.Windows))
	for wi, ws := range p.Windows {
		opt := core.WinOptions{Mode: mode, Info: ws.Info}
		if a.Signal {
			opt.Transport, opt.SignalBase = core.TransportSignal, SignalBase(p.Seed)
		}
		windows[wi] = prog.Window{Size: ws.TotalSize(p.NRanks), Opt: opt}
	}
	run := prog.NewRun(world, windows...)
	rec := trace.NewRecorder()
	run.RT.SetTracer(rec)

	res := &RunResult{Wins: run.Wins}
	groups, progs := roundGroups(p), make([]prog.Program, p.NRanks)
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
		return run.Exec(func(r *mpi.Rank) prog.Program {
			progs[r.ID] = compile(p, mode, r.ID, groups)
			return progs[r.ID]
		}, tasks)
	}()

	res.Spans = rec.Events()
	res.KernelEvents = world.Events()
	res.Counters = &world.Net.Counters
	if res.Err == nil {
		res.Mems = make([][][]byte, len(p.Windows))
		for wi := range p.Windows {
			res.Mems[wi] = make([][]byte, p.NRanks)
		}
		for r, wins := range res.Wins {
			for wi, win := range wins {
				res.Mems[wi][r] = append([]byte(nil), win.Bytes()...)
			}
		}
		res.Fetched = fetched(progs)
	}
	return res
}

// roundGroups is every round's two groups as the records name them: round
// i's targets (what its origins start toward) at 2i, its origins at 2i+1.
func roundGroups(p *Program) [][]int {
	gs := make([][]int, 2*len(p.Rounds))
	for i := range p.Rounds {
		gs[2*i], gs[2*i+1] = p.Rounds[i].Targets, p.Rounds[i].Origins
	}
	return gs
}

// compile lays out rank me's program of p under mode: the records are walked
// twice, to count and then to fill, so they are one exact-size allocation,
// and each operation owns one buffer.
func compile(p *Program, mode core.Mode, me int, groups [][]int) prog.Program {
	n := 0
	layout(p, mode, me, func(prog.Call, *OpSpec) { n++ })
	cs := make([]prog.Call, 0, n)
	layout(p, mode, me, func(c prog.Call, o *OpSpec) {
		if o != nil {
			c.Buf = opMem(p.Windows[c.Win], int(c.Win), me, o)
		}
		cs = append(cs, c)
	})
	return prog.Program{Body: cs, Iters: 1, Groups: groups}
}

// layout emits rank me's records of p under mode in program order, with the
// OpSpec of each operation: CreateWindow per window; per round its Compute,
// synchronizations and operations; then Wait for the kept nonblocking
// closes, Quiesce per window and a Barrier. A rank takes the I-forms in the
// rounds that make it nonblocking, where its mode has them (vanilla has none).
// Flush-mode locks are pure mutual exclusion, so their acquire is always
// awaited before the ops, and completion comes from the flush family: an
// explicit flush before the unlock, or the one a blocking unlock_all implies.
func layout(p *Program, mode core.Mode, me int, emit func(prog.Call, *OpSpec)) {
	for wi := range p.Windows {
		emit(prog.Call{Kind: prog.Create, Win: int32(wi)}, nil)
	}
	for i := range p.Rounds {
		rd := &p.Rounds[i]
		ws, win := &p.Windows[rd.Win], int32(rd.Win)
		flush, nb := mode == core.ModeFlush, rd.Nonblocking[me] && mode.Nonblocking()
		add := func(k prog.Kind, nb bool, c prog.Call) {
			if c.Kind, c.Win = k, win; nb {
				c.Kind++
			}
			emit(c, nil)
		}
		ops := func(ops []OpSpec) {
			for j := range ops {
				o := &ops[j]
				c := prog.Call{Kind: prog.Put + prog.Kind(o.Kind), Op: uint8(ws.Op), DT: uint8(ws.DT),
					Win: win, Peer: int32(o.Target), Off: o.Off, Size: o.Size}
				switch {
				case o.Kind == OpGetAcc && o.NoOp:
					c.Op = uint8(core.OpNoOp)
				case o.Kind == OpCAS:
					c.DT = uint8(core.TUint64)
				}
				emit(c, o)
			}
		}
		if rd.Compute[me] > 0 {
			add(prog.Compute, false, prog.Call{Size: rd.Compute[me]})
		}
		switch {
		case rd.Kind == RFence:
			for ph := 0; ph < rd.Phases; ph++ {
				add(prog.Fence, nb, prog.Call{})
				ops(rd.PhaseOps[ph][me])
			}
			add(prog.Fence, nb, prog.Call{Flag: true})
		case rd.Kind == RGATS && slices.Contains(rd.Origins, me):
			add(prog.Start, nb, prog.Call{Arg: int32(2 * i)})
			ops(rd.Ops[me])
			add(prog.Complete, nb, prog.Call{})
		case rd.Kind == RGATS && slices.Contains(rd.Targets, me):
			add(prog.Post, nb, prog.Call{Arg: int32(2*i + 1)})
			add(prog.WaitEpoch, nb, prog.Call{})
		case rd.Kind == RLock && rd.LockTarget[me] >= 0:
			target := int32(rd.LockTarget[me])
			add(prog.Lock, nb && !flush, prog.Call{Peer: target, Flag: !rd.LockShared[me]})
			ops(rd.Ops[me])
			if flush {
				add(prog.Flush, nb, prog.Call{Peer: target})
			}
			add(prog.Unlock, nb, prog.Call{Peer: target})
		case rd.Kind == RLockAll && rd.Member[me]:
			add(prog.LockAll, nb && !flush, prog.Call{})
			ops(rd.Ops[me])
			if flush && !nb {
				add(prog.FlushAll, false, prog.Call{})
			}
			add(prog.UnlockAll, nb, prog.Call{})
		case rd.Kind == RFlush && rd.Member[me]: // the epochless idiom: issue, then flush
			ops(rd.Ops[me])
			add(prog.FlushAll, nb, prog.Call{})
		}
	}
	emit(prog.Call{Kind: prog.Wait}, nil)
	for wi := range p.Windows {
		emit(prog.Call{Kind: prog.Quiesce, Win: int32(wi)}, nil)
	}
	emit(prog.Call{Kind: prog.Barrier}, nil)
}

// opMem materializes an operation's buffers as one allocation the op owns,
// laid out as prog.Call's Buf: its operand (a CAS's swap value, then its
// compare value), then room for its result.
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

// fetched collects every rank's fetched results in program order, all rank
// lists cut from one allocation.
func fetched(progs []prog.Program) [][][]byte {
	n := 0
	for _, pg := range progs {
		for i := range pg.Body {
			if pg.Body[i].Result() != nil {
				n++
			}
		}
	}
	all, out := make([][]byte, 0, n), make([][][]byte, len(progs))
	for r, pg := range progs {
		from := len(all)
		for i := range pg.Body {
			if b := pg.Body[i].Result(); b != nil {
				all = append(all, b)
			}
		}
		out[r] = all[from:len(all):len(all)]
	}
	return out
}
