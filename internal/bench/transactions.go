package bench

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/prog"
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
	// CreditConstrained imposes the paper's 512-core ceiling as an input:
	// "An InfiniBand flow control issue prevents the new implementation
	// from scaling beyond 512 processes when there are large numbers of
	// simultaneously pending epochs." When the job size reaches 512 the
	// nonblocking pipeline is cut to a depth of 1, so A_A_A_R gains nothing
	// there. The model's per-peer credits do not produce this ceiling
	// (AblationCredits).
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

// txnRun is one transaction cell once it has run: its world, windows and
// rank 0's elapsed time, sample slot 0.
type txnRun struct {
	*prog.Run
	epochs int
}

// txnCell runs one transaction cell in the given rank execution form
// (prog.Run.Exec; TestAppTaskParity pins the two against each other). A
// rank's program is
//
//	CreateWindow; Barrier; then per transaction
//	  blocking:     Lock; Accumulate; Unlock
//	  nonblocking:  ILock; Accumulate; IUnlock; Wait(oldest) at depth
//	then Wait(rest); Barrier; Quiesce
//
// on a random exclusive target, drawn by the rank's txnGen.
func txnCell(n int, cfg fabric.Config, series TxnSeries, p TxnParams, tasks bool) *txnRun {
	opt, nb, depth := core.WinOptions{Mode: core.ModeNew, ShapeOnly: true}, false, p.PipelineDepth
	switch series {
	case TxnMVAPICH:
		opt.Mode = core.ModeVanilla
	case TxnNewNB:
		nb = true
	case TxnNewNBAAAR:
		opt.Info = core.Info{AAAR: true}
		nb = true
	}
	if p.CreditConstrained && n >= 512 && depth > 1 {
		depth = 1
	}
	run := &txnRun{Run: prog.NewRun(mpi.NewWorldShards(n, cfg, Shards()), prog.Window{Size: 4096, Opt: opt}), epochs: p.EpochsPerRank}
	run.Slots(1, 1)
	block := []op{lock(0, true), acc(0, 8), unlock(0)}
	epi := []op{barrier, quiesce}
	if nb {
		block = []op{ilock(0, true), acc(0, 8), iunlock(0), {Kind: prog.WaitOldest, Arg: int32(depth)}}
		epi = []op{wait, barrier, quiesce}
	}
	pre, body := []op{create, barrier, stamp}, []op{{Kind: prog.Gen}}
	epi0 := slices.Insert(slices.Clone(epi), len(epi)-1, sample(0)) // rank 0 samples the elapsed time
	err := run.Exec(func(r *mpi.Rank) prog.Program {
		g := &txnGen{n: n, rng: sim.NewRNG(p.Seed ^ uint64(r.ID)*0x9e3779b97f4a7c15), blk: slices.Clone(block)}
		pg := prog.Program{Pre: pre, Body: body, Post: epi, Iters: p.EpochsPerRank, Gen: g}
		if r.ID == 0 {
			pg.Post = epi0
		}
		return pg
	}, tasks)
	if err != nil {
		panic(fmt.Sprintf("bench: simulation failed: %v", err))
	}
	return run
}

// txnGen is a rank's transaction draw: every Next patches the target and
// offset of its one block in place.
type txnGen struct {
	n   int
	rng *sim.RNG
	blk []op // lock, accumulate, unlock (and the nonblocking retire)
}

func (g *txnGen) Next(error) []op {
	target := int32(g.rng.Intn(g.n))
	g.blk[0].Peer, g.blk[1].Peer, g.blk[2].Peer = target, target, target
	g.blk[1].Off = int64(g.rng.Intn(512)) * 8
	return g.blk
}

// throughput is the cell's reading: thousands of transactions per second.
func (run *txnRun) throughput() float64 {
	total := float64(run.World.Size() * run.epochs)
	seconds := float64(run.Samples[0][0]) / float64(sim.Second)
	return total / seconds / 1000
}
