package bench

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Figure 12: dynamic unstructured massive transactions (Section IV-B /
// VIII-B). Every rank performs many atomic 8-byte updates on randomly
// chosen peers; each update is isolated in its own exclusive-lock epoch.
// Blocking series serialize the epochs at application level; the
// nonblocking series keeps a pipeline of pending epochs; A_A_A_R
// additionally lets the progress engine complete them out of order
// (contention avoidance), which is where the big throughput gain comes
// from.

// TxnSeries extends the three standard series with the A_A_A_R variant of
// Fig 12.
type TxnSeries int

// Fig 12's four test series.
const (
	TxnMVAPICH TxnSeries = iota
	TxnNew
	TxnNewNB
	TxnNewNBAAAR
)

// AllTxnSeries lists the Fig 12 series in presentation order.
var AllTxnSeries = []TxnSeries{TxnMVAPICH, TxnNew, TxnNewNB, TxnNewNBAAAR}

// String implements fmt.Stringer.
func (s TxnSeries) String() string {
	switch s {
	case TxnMVAPICH:
		return "MVAPICH"
	case TxnNew:
		return "New"
	case TxnNewNB:
		return "New nonblocking"
	case TxnNewNBAAAR:
		return "New nonblocking + A_A_A_R"
	}
	return "unknown"
}

// TxnParams configures the Fig 12 workload.
type TxnParams struct {
	// EpochsPerRank is the number of transactions each rank performs.
	EpochsPerRank int
	// PipelineDepth bounds the number of simultaneously pending epochs in
	// the nonblocking series.
	PipelineDepth int
	// CreditConstrained applies the paper's 512-core flow-control ceiling:
	// "An InfiniBand flow control issue prevents the new implementation
	// from scaling beyond 512 processes when there are large numbers of
	// simultaneously pending epochs." When the job size reaches 512 the
	// pipeline is throttled to a depth of 2, reproducing the reported
	// collapse of the A_A_A_R advantage to ~2%.
	CreditConstrained bool
	// Seed randomizes target selection deterministically.
	Seed uint64
}

// DefaultTxnParams returns the parameters used for the Fig 12 table.
func DefaultTxnParams() TxnParams {
	return TxnParams{EpochsPerRank: 96, PipelineDepth: 24, CreditConstrained: true, Seed: 0x5eed}
}

// Fig12Transactions reproduces Fig 12: transaction throughput (thousands
// of transactions per second) per job size and series.
func Fig12Transactions(sizes []int, p TxnParams) *stats.Table {
	return grid("Fig 12: massive unstructured atomic transactions", "thousands of transactions/s", "job size",
		labels(sizes, strconv.Itoa), labels(AllTxnSeries, TxnSeries.String),
		func(ni, si int) float64 { return RunTxn(sizes[ni], AllTxnSeries[si], p) })
}

// RunTxn runs the transaction workload on n ranks for one series and
// returns the throughput in thousands of transactions per second.
func RunTxn(n int, series TxnSeries, p TxnParams) float64 {
	return runTxn(n, Config(), series, p)
}

// runTxn is RunTxn under an explicit fabric calibration (the ablations
// sweep credits and call overhead).
func runTxn(n int, cfg fabric.Config, series TxnSeries, p TxnParams) float64 {
	return txnCell(n, cfg, series, p, true).throughput()
}

// txnRun is one transaction cell: the series' shape, which every rank's
// program reads, and the world, windows and rank 0's elapsed time once it
// has run.
type txnRun struct {
	n, epochs, depth int
	nonblocking      bool
	opt              core.WinOptions
	world            *mpi.World
	rt               *core.Runtime
	wins             []*core.Window
	elapsed          sim.Time
}

// txnCell runs one transaction cell in the given rank execution form
// (mpi.World.RunProgram; TestAppTaskParity pins the two against each other).
func txnCell(n int, cfg fabric.Config, series TxnSeries, p TxnParams, tasks bool) *txnRun {
	run := &txnRun{n: n, epochs: p.EpochsPerRank, depth: p.PipelineDepth,
		opt: core.WinOptions{Mode: core.ModeNew, ShapeOnly: true}, wins: make([]*core.Window, n)}
	switch series {
	case TxnMVAPICH:
		run.opt.Mode = core.ModeVanilla
	case TxnNewNB:
		run.nonblocking = true
	case TxnNewNBAAAR:
		run.opt.Info = core.Info{AAAR: true}
		run.nonblocking = true
	}
	if p.CreditConstrained && n >= 512 && run.depth > 1 {
		run.depth = 1
	}
	run.world = mpi.NewWorldShards(n, cfg, Shards())
	run.rt = core.NewRuntime(run.world)
	err := run.world.RunProgram(func(r *mpi.Rank) sim.Task {
		return &txnProgram{run: run, r: r, rng: sim.NewRNG(p.Seed ^ uint64(r.ID)*0x9e3779b97f4a7c15)}
	}, tasks)
	if err != nil {
		panic(fmt.Sprintf("bench: simulation failed: %v", err))
	}
	return run
}

// throughput is the cell's reading: thousands of transactions per second.
func (run *txnRun) throughput() float64 {
	total := float64(run.n * run.epochs)
	seconds := float64(run.elapsed) / float64(sim.Second)
	return total / seconds / 1000
}

// txnProgram is the transaction workload's rank program, one step per MPI
// call (see scaleProgram):
//
//	CreateWindow; Barrier; then per transaction
//	  blocking:     Lock; Accumulate; Unlock
//	  nonblocking:  ILock; Accumulate; IUnlock; Wait(oldest) at depth
//	then Wait(rest); Barrier; Quiesce
//
// on a random exclusive target. The target is drawn in a step that makes no
// call, so the repeat of a pending call never draws again.
type txnProgram struct {
	run *txnRun
	r   *mpi.Rank
	rng *sim.RNG

	win     *core.Window
	step    int // the call to make next (tx* constants)
	i       int // transactions begun
	target  int
	off     int64
	t0      sim.Time
	pending []*mpi.Request // nonblocking unlocks in flight, oldest first
}

// The program's steps, in program order.
const (
	txCreate = iota
	txBarrier
	txStamp
	txPick
	txLock
	txAcc
	txUnlock
	txRetire
	txNext
	txDrain
	txEndBarrier
	txSample
	txQuiesce
	txExit
)

func (t *txnProgram) Step(p *sim.Proc) {
	r, win, run := t.r, t.win, t.run
	for {
		switch t.step {
		case txCreate:
			win = run.rt.CreateWindow(r, 4096, run.opt)
			t.win, run.wins[r.ID] = win, win
		case txBarrier:
			r.Barrier()
		case txStamp:
			t.t0 = r.Now()
		case txPick:
			if t.i == run.epochs {
				t.step = txDrain
				continue
			}
			t.target = t.rng.Intn(run.n)
			t.off = int64(t.rng.Intn(512)) * 8
		case txLock:
			if run.nonblocking {
				win.ILock(t.target, true)
			} else {
				win.Lock(t.target, true)
			}
		case txAcc:
			win.Accumulate(t.target, t.off, core.OpSum, core.TUint64, nil, 8)
		case txUnlock:
			if !run.nonblocking {
				win.Unlock(t.target)
			} else if q := win.IUnlock(t.target); !r.Pending() {
				t.pending = append(t.pending, q)
			}
		case txRetire:
			if run.nonblocking && len(t.pending) >= run.depth {
				if r.Wait(t.pending[0]); !r.Pending() {
					t.pending = t.pending[1:]
				}
			}
		case txNext:
			t.i++
			t.step = txPick
			continue
		case txDrain:
			if run.nonblocking {
				r.Wait(t.pending...)
			}
		case txEndBarrier:
			r.Barrier()
		case txSample:
			if r.ID == 0 {
				run.elapsed = r.Now() - t.t0
			}
		case txQuiesce:
			win.Quiesce()
		case txExit:
			p.TaskExit()
			return
		}
		if r.Pending() {
			return
		}
		t.step++
	}
}
