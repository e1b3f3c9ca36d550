package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/peertab"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Runtime owns the per-rank RMA engines of one job and wires them into the
// fabric (NIC handlers) and into each rank's progress loop. Create exactly
// one Runtime per mpi.World before launching rank bodies.
type Runtime struct {
	world   *mpi.World
	engines []Engine
	tracer  *trace.Recorder
	// pools backs every window's ops and peer table (Engine.pl): the
	// world's one set (one), or one per rank when sharded, so a set is
	// only touched by its own shard.
	pools []pools
	one   [1]pools
}

// pools holds the recycled objects of one kernel context.
type pools struct {
	ops   sim.Pool[rmaOp]
	peers peertab.Arena[peerCounters]
}

// NewRuntime attaches an RMA runtime to every rank of w.
func NewRuntime(w *mpi.World) *Runtime {
	rt := &Runtime{world: w, engines: make([]Engine, w.Size())}
	rt.pools = rt.one[:]
	if w.K == nil {
		rt.pools = make([]pools, w.Size())
	}
	np := len(rt.pools)
	for i := range rt.pools {
		rt.pools[i].ops = sim.NewPool(func(o *rmaOp) **rmaOp { return &o.nextLive })
	}
	for i := range rt.engines {
		rt.engines[i].init(rt, w.Rank(i), &rt.pools[i%np])
	}
	// When the fabric runs with fault injection, its one failure detector
	// declares a dead peer here at the death plus DetectDelay: the local
	// engine aborts the epochs that depend on that peer (errors.go) instead
	// of letting waiters hang.
	w.Net.SetUnreachableHandler(func(local, peer int) {
		rt.engines[local].peerUnreachable(peer)
	})
	rt.registerDiagnostics()
	return rt
}

// WinOptions configures window creation.
type WinOptions struct {
	Mode Mode
	Info Info
	// ShapeOnly windows model traffic timing without allocating or copying
	// window memory; data-carrying operations are rejected on them.
	ShapeOnly bool
	// NoTriggeredOps disables grant-triggered (NIC-context) issuing of
	// recorded transfers: issue then requires a CPU engine sweep, as in a
	// software-only progress design. Exists for the ablation benchmarks;
	// leave false for the paper's design.
	NoTriggeredOps bool
	// EpochTimeout, when positive, bounds the virtual time an application-
	// closed epoch may stay incomplete before the window aborts it with
	// ErrTimeout (or ErrRankUnreachable when a dead peer is implicated).
	// 0 — the default — disables the watchdog, matching MPI semantics.
	EpochTimeout sim.Time
	// Transport selects the control-plane wire format (control.go):
	// TransportGATS (default) carries typed 8-byte control packets;
	// TransportSignal carries grant/done notifications as one-sided
	// counter-replica writes and — under ModeNew — completes GATS access
	// epochs at local (wire) completion. Collective.
	Transport Transport
	// SignalBase offsets the signal wire format's counters (control.go).
	// Zero by default; tests seed it near ^uint64(0) to exercise wraparound.
	// Collective: every rank must pass the same value.
	SignalBase uint64
	// FlushMaster selects the rank hosting a ModeFlush window's global
	// lock counters (the foMPI protocol's master; 0 by default). Collective
	// like every option: all ranks must pass the same value. Serving
	// scenarios with one window per data home set it to the home rank, so
	// the death of an unrelated rank never implicates the window via its
	// master dependency.
	FlushMaster int
	// ErrorsReturn is MPI_ERRORS_RETURN for the window: a blocking
	// synchronization or RMA call that meets an aborted epoch records the
	// *RMAError it would panic with for Window.TakeErr and returns at once.
	// False — the default — is MPI_ERRORS_ARE_FATAL.
	ErrorsReturn bool
}

// CreateWindow collectively creates an RMA window exposing size bytes of
// local memory on every rank. All ranks of the job must call it in the same
// order with the same options (as with MPI_WIN_CREATE); the call contains a
// barrier. The repeat of a call pending in that barrier finds the window it
// created in the call state.
func (rt *Runtime) CreateWindow(r *mpi.Rank, size int64, opt WinOptions) *Window {
	c := &rt.engines[r.ID].call
	w := c.win
	if w == nil {
		w = rt.newWindow(r, size, opt)
	}
	c.win = nil
	if r.Barrier(); r.Pending() {
		c.win = w
		return nil
	}
	return w
}

// newWindow builds rank r's local state of a window: CreateWindow without
// its collective barrier.
func (rt *Runtime) newWindow(r *mpi.Rank, size int64, opt WinOptions) *Window {
	if size < 0 {
		panic(fmt.Sprintf("core: rank %d: negative window size %d", r.ID, size))
	}
	eng := &rt.engines[r.ID]
	w := &Window{
		rank:    r,
		eng:     eng,
		id:      int64(len(eng.windows)),
		info:    opt.Info,
		n:       rt.world.Size(),
		size:    size,
		noTrig:  opt.NoTriggeredOps,
		timeout: opt.EpochTimeout,
		peers:   peertab.NewWorld(rt.world.Size(), &eng.pl.peers),

		errorsReturn: opt.ErrorsReturn,
	}
	if !opt.ShapeOnly {
		w.buf = make([]byte, size)
	}
	w.agent = lockAgent{w: w, exclHolder: -1}
	w.impl, w.rules = newModeImpl(w, opt)
	w.setTransport(opt)
	eng.windows = append(eng.windows, w)
	eng.winList = append(eng.winList, w)
	return w
}
