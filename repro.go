// Package repro is the public API of the nonblocking-RMA-epochs library:
// a simulated MPI cluster with one-sided communication windows whose epoch
// synchronizations are available in both blocking and entirely nonblocking
// (I-) forms, as proposed in "Nonblocking Epochs in MPI One-Sided
// Communication" (SC14).
//
// A minimal program:
//
//	c := repro.NewCluster(2, repro.DefaultConfig())
//	err := c.Run(func(r *repro.Rank) {
//	    win := c.CreateWindow(r, 1<<20, repro.WinOptions{Mode: repro.ModeNew})
//	    if r.ID == 0 {
//	        win.IStart([]int{1})
//	        win.Put(1, 0, data, int64(len(data)))
//	        req := win.IComplete() // epoch closed, nothing blocked
//	        // ... overlap useful work here ...
//	        r.Wait(req)
//	    } else {
//	        win.IPost([]int{0})
//	        r.Wait(win.IWait())
//	    }
//	})
//
// The heavy lifting lives in internal/core (the epoch engine),
// internal/mpi (two-sided runtime), internal/fabric (interconnect model)
// and internal/sim (deterministic discrete-event kernel); this package
// re-exports the user-facing types.
package repro

import (
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Re-exported types. See the internal packages for full documentation.
type (
	// Rank is one simulated MPI process.
	Rank = mpi.Rank
	// Request is an MPI_REQUEST handle usable with Rank.Wait/Test.
	Request = mpi.Request
	// Window is an RMA window (internal/core.Window).
	Window = core.Window
	// WinOptions configures CreateWindow.
	WinOptions = core.WinOptions
	// Mode selects the RMA stack (ModeNew, ModeVanilla or ModeFlush).
	Mode = core.Mode
	// Info carries the progress-engine reorder flags.
	Info = core.Info
	// Transport selects how epoch control information travels
	// (TransportGATS or TransportSignal).
	Transport = core.Transport
	// Config describes the simulated interconnect.
	Config = fabric.Config
	// Time is virtual nanoseconds.
	Time = sim.Time
	// FenceAssert carries fence assertions.
	FenceAssert = core.FenceAssert
	// DType is an RMA element datatype.
	DType = core.DType
	// AccOp is an accumulate operator.
	AccOp = core.AccOp
	// ReduceOp is a two-sided collective reduction operator.
	ReduceOp = mpi.ReduceOp
	// TraceRecorder records one span per epoch, its latency split into parts.
	TraceRecorder = trace.Recorder
	// TraceReport is the outcome of analyzing a trace.
	TraceReport = trace.Report
)

// Re-exported constants.
const (
	ModeNew     = core.ModeNew
	ModeVanilla = core.ModeVanilla
	ModeFlush   = core.ModeFlush

	TransportGATS   = core.TransportGATS
	TransportSignal = core.TransportSignal

	AssertNone      = core.AssertNone
	AssertNoPrecede = core.AssertNoPrecede
	AssertNoSucceed = core.AssertNoSucceed

	TInt64   = core.TInt64
	TUint64  = core.TUint64
	TFloat64 = core.TFloat64
	TByte    = core.TByte

	OpSum     = core.OpSum
	OpProd    = core.OpProd
	OpMax     = core.OpMax
	OpMin     = core.OpMin
	OpBand    = core.OpBand
	OpBor     = core.OpBor
	OpBxor    = core.OpBxor
	OpReplace = core.OpReplace
	OpNoOp    = core.OpNoOp

	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second

	ReduceSum = mpi.OpSum
	ReduceMax = mpi.OpMax
	ReduceMin = mpi.OpMin
)

// DefaultConfig returns the calibrated interconnect model (2 us small-
// message latency; ~340 us per 1 MB put).
func DefaultConfig() Config { return fabric.DefaultConfig() }

// Cluster is a simulated MPI job: n ranks over one interconnect, with the
// RMA runtime attached.
type Cluster struct {
	World   *mpi.World
	Runtime *core.Runtime
}

// NewCluster creates a cluster of n ranks.
func NewCluster(n int, cfg Config) *Cluster {
	w := mpi.NewWorld(n, cfg)
	return &Cluster{World: w, Runtime: core.NewRuntime(w)}
}

// CreateWindow collectively creates an RMA window (call from rank bodies).
func (c *Cluster) CreateWindow(r *Rank, size int64, opt WinOptions) *Window {
	return c.Runtime.CreateWindow(r, size, opt)
}

// Run launches body on every rank and executes the simulation to
// completion. The returned error reports panics or communication deadlocks.
func (c *Cluster) Run(body func(*Rank)) error { return c.World.Run(body) }

// Now returns the cluster's current virtual time.
func (c *Cluster) Now() Time { return c.World.K.Now() }

// EnableTracing attaches a fresh trace recorder to the cluster's RMA
// runtime and returns it; analyze the recording with AnalyzeTrace.
func (c *Cluster) EnableTracing() *TraceRecorder {
	rec := trace.NewRecorder()
	c.Runtime.SetTracer(rec)
	return rec
}

// AnalyzeTrace quantifies the paper's inefficiency patterns (Late Post,
// Early Wait, Late Complete, Wait at Fence, Late Unlock) over a recording.
func AnalyzeTrace(rec *TraceRecorder) TraceReport {
	return trace.Analyze(rec.Events())
}
