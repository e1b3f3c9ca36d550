package fuzz

import (
	"fmt"

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
func ExecuteWith(p *Program, mode core.Mode, o ExecOptions) *RunResult {
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
	// world.Run recovers panics raised in rank bodies, but core can also
	// raise from NIC/kernel context (e.g. a malformed unlock at a lock
	// agent); recover those here so a fuzzed bug becomes a reported failure
	// with its seed instead of a process abort.
	res.Err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic outside rank context: %v", r)
			}
		}()
		return world.Run(func(r *mpi.Rank) {
			me := r.ID
			for _, ws := range p.Windows {
				opt := core.WinOptions{Mode: mode, Info: ws.Info}
				if o.Signal {
					opt.Transport = core.TransportSignal
					opt.SignalBase = SignalBase(p.Seed)
				}
				win := rt.CreateWindow(r, ws.TotalSize(p.NRanks), opt)
				res.Wins[me] = append(res.Wins[me], win)
			}
			var pending []*mpi.Request
			for _, rd := range p.Rounds {
				execRound(p, rd, r, res.Wins[me], mode, &pending)
			}
			r.Wait(pending...)
			for _, win := range res.Wins[me] {
				win.Quiesce()
			}
			r.Barrier()
		})
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
			for r := 0; r < p.NRanks; r++ {
				res.Mems[wi][r] = append([]byte(nil), res.Wins[r][wi].Bytes()...)
			}
		}
		for r := 0; r < p.NRanks; r++ {
			for _, win := range res.Wins[r] {
				res.Stats[r] = append(res.Stats[r], win.Stats())
			}
		}
	}
	return res
}

func execRound(p *Program, rd Round, r *mpi.Rank, wins []*core.Window, mode core.Mode, pending *[]*mpi.Request) {
	me := r.ID
	if d := rd.Compute[me]; d > 0 {
		r.Compute(sim.Time(d))
	}
	win := wins[rd.Win]
	if mode == core.ModeFlush {
		execFlushRound(p, rd, r, win, pending)
		return
	}
	nb := rd.Nonblocking[me] && mode == core.ModeNew

	switch rd.Kind {
	case RFence:
		for ph := 0; ph < rd.Phases; ph++ {
			if nb {
				*pending = append(*pending, win.IFence(core.AssertNone))
			} else {
				win.Fence(core.AssertNone)
			}
			doOps(p, rd.Win, me, rd.PhaseOps[ph][me], win)
		}
		if nb {
			*pending = append(*pending, win.IFence(core.AssertNoSucceed))
		} else {
			win.Fence(core.AssertNoSucceed)
		}

	case RGATS:
		switch {
		case contains(rd.Origins, me):
			if nb {
				win.IStart(rd.Targets)
				doOps(p, rd.Win, me, rd.Ops[me], win)
				*pending = append(*pending, win.IComplete())
			} else {
				win.Start(rd.Targets)
				doOps(p, rd.Win, me, rd.Ops[me], win)
				win.Complete()
			}
		case contains(rd.Targets, me):
			if nb {
				win.IPost(rd.Origins)
				*pending = append(*pending, win.IWait())
			} else {
				win.Post(rd.Origins)
				win.WaitEpoch()
			}
		}

	case RLock:
		t := rd.LockTarget[me]
		if t < 0 {
			return
		}
		exclusive := !rd.LockShared[me]
		if nb {
			win.ILock(t, exclusive)
			doOps(p, rd.Win, me, rd.Ops[me], win)
			*pending = append(*pending, win.IUnlock(t))
		} else {
			win.Lock(t, exclusive)
			doOps(p, rd.Win, me, rd.Ops[me], win)
			win.Unlock(t)
		}

	case RLockAll:
		if !rd.Member[me] {
			return
		}
		if nb {
			win.ILockAll()
			doOps(p, rd.Win, me, rd.Ops[me], win)
			*pending = append(*pending, win.IUnlockAll())
		} else {
			win.LockAll()
			doOps(p, rd.Win, me, rd.Ops[me], win)
			win.UnlockAll()
		}
	}
}

// execFlushRound runs one round of a GenerateFlush program under ModeFlush.
// Locks are pure mutual exclusion (never gating transfer issue), so the
// acquire is always awaited before ops — required anyway for the unlock's
// held-lock check — and completion comes from the flush family: either an
// explicit flush before unlock (nonblocking arm) or the flush the blocking
// unlock implies.
func execFlushRound(p *Program, rd Round, r *mpi.Rank, win *core.Window, pending *[]*mpi.Request) {
	me := r.ID
	nb := rd.Nonblocking[me]
	switch rd.Kind {
	case RLock:
		t := rd.LockTarget[me]
		if t < 0 {
			return
		}
		r.Wait(win.ILock(t, !rd.LockShared[me]))
		doOps(p, rd.Win, me, rd.Ops[me], win)
		if nb {
			*pending = append(*pending, win.IFlush(t), win.IUnlock(t))
		} else {
			win.Flush(t)
			win.Unlock(t)
		}
	case RLockAll:
		if !rd.Member[me] {
			return
		}
		r.Wait(win.ILockAll())
		doOps(p, rd.Win, me, rd.Ops[me], win)
		if nb {
			*pending = append(*pending, win.IUnlockAll())
		} else {
			win.FlushAll()
			win.UnlockAll()
		}
	case RFlush:
		// The epochless idiom: no lock at all — issue, then flush.
		if !rd.Member[me] {
			return
		}
		doOps(p, rd.Win, me, rd.Ops[me], win)
		if nb {
			*pending = append(*pending, win.IFlushAll())
		} else {
			win.FlushAll()
		}
	default:
		panic(fmt.Sprintf("fuzz: round kind %d in a flush-mode program", rd.Kind))
	}
}

// doOps issues one epoch's generated operations.
func doOps(p *Program, wi, origin int, ops []OpSpec, win *core.Window) {
	ws := p.Windows[wi]
	for _, o := range ops {
		switch o.Kind {
		case OpPut:
			win.Put(o.Target, o.Off, putPayload(wi, origin, o.Off, o.Size), o.Size)
		case OpGet:
			win.Get(o.Target, o.Off, make([]byte, o.Size), o.Size)
		case OpAcc:
			win.Accumulate(o.Target, o.Off, ws.Op, ws.DT, accPayload(o.Val, o.Size, ws.DT), o.Size)
		case OpGetAcc:
			op := ws.Op
			if o.NoOp {
				op = core.OpNoOp
			}
			win.GetAccumulate(o.Target, o.Off, op, ws.DT,
				accPayload(o.Val, o.Size, ws.DT), make([]byte, o.Size), o.Size)
		case OpFAO:
			win.FetchAndOp(o.Target, o.Off, ws.Op, ws.DT,
				accPayload(o.Val, o.Size, ws.DT), make([]byte, o.Size))
		case OpCAS:
			cmp := make([]byte, 8)
			if !o.Match {
				for i := range cmp {
					cmp[i] = 0xff // slots are single-use and zero-initialized: never matches
				}
			}
			win.CompareAndSwap(o.Target, o.Off, core.TUint64, cmp, casSwap(o.Val), make([]byte, 8))
		}
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
