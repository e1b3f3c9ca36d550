package bench

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Figure 13: 1-D LU decomposition over GATS epochs with cyclic row mapping
// (Section VIII-B). At step k, the owner of row k broadcasts the row's
// nonzero cells one-sidedly to the other n-1 peers; every process then
// updates its own rows below k. The program has two kinds of
// communication/computation overlapping: inside the epoch (all series) and
// after the epoch is closed but not yet completed (only "New nonblocking").
//
// The paper runs 8192^2 and 16384^2 matrices on real CPUs; here the row
// updates are modeled as calibrated virtual compute time (the skeleton
// preserves message sizes, epoch structure and the compute/communication
// ratio — see DESIGN.md). examples/lu runs a real, numerically verified LU
// on small matrices with the same communication structure.

// LUParams configures the LU skeleton.
type LUParams struct {
	M int // matrix dimension (rows)
	// FlopNs is the modeled cost, in virtual nanoseconds, of one
	// multiply-subtract row-element update. 20 ns reproduces the paper's
	// compute/communication balance for the 8192^2 runs.
	FlopNs float64
}

// DefaultLUParams returns the calibration for a paper-scale matrix.
func DefaultLUParams(m int) LUParams { return LUParams{M: m, FlopNs: 20} }

// LUResult is one LU run's outcome.
type LUResult struct {
	N        int
	M        int
	Series   Series
	Total    sim.Time // overall execution time
	CommPct  float64  // average fraction of time spent in MPI calls (%)
	PerRankS float64  // Total in seconds
}

// Fig13LU reproduces Fig 13: overall time and communication percentage per
// job size for all three series, for one matrix size.
func Fig13LU(sizes []int, p LUParams) (timeTable, commTable *stats.Table) {
	rows, cols := labels(sizes, strconv.Itoa), labels(AllSeries, Series.String)
	title := fmt.Sprintf("Fig 13: LU decomposition, matrix %dx%d", p.M, p.M)
	timeTable = stats.NewTable(title+" - overall time", "s", "processes", rows, cols)
	commTable = stats.NewTable(title+" - communication time", "% of overall", "processes", rows, cols)
	results := par.Map(len(sizes)*len(AllSeries), func(j int) LUResult {
		return RunLU(sizes[j/len(AllSeries)], AllSeries[j%len(AllSeries)], p)
	})
	for j, res := range results {
		ni, si := j/len(AllSeries), j%len(AllSeries)
		timeTable.Cells[ni][si] = res.PerRankS
		commTable.Cells[ni][si] = res.CommPct
	}
	return timeTable, commTable
}

// RunLU runs the LU communication skeleton on n ranks.
func RunLU(n int, series Series, p LUParams) LUResult {
	m := p.M
	rowBytes := int64(m) * 8
	var total sim.Time
	// Per-rank slots, each written only by its own rank (shard-safe), summed
	// in fixed rank order below so the result is shard-count invariant.
	comm := make([]float64, n)
	runWorld(n, Config(), func(r *mpi.Rank, rt *core.Runtime) {
		win := rt.CreateWindow(r, rowBytes, core.WinOptions{Mode: series.Mode(), ShapeOnly: true})
		group := others(n, r.ID)
		r.Barrier()
		t0 := r.Now()
		mpiT0 := r.TimeInMPI
		for k := 0; k < m; k++ {
			owner := k % n
			size := int64(m-k) * 8 // nonzero cells of row k
			work := luWorkTime(r.ID, n, m, k, p.FlopNs)
			if r.ID == owner {
				if n == 1 {
					r.Compute(work)
					continue
				}
				if series.Nonblocking() {
					win.IStart(group)
					for _, t := range group {
						win.Put(t, 0, nil, size)
					}
					req := win.IComplete()
					// Overlap both with the transfers (epoch already
					// closed) and with the peers' update work.
					r.Compute(work)
					r.Wait(req)
				} else {
					win.Start(group)
					for _, t := range group {
						win.Put(t, 0, nil, size)
					}
					r.Compute(work) // in-epoch overlap -> Late Complete
					win.Complete()
				}
			} else {
				win.Post([]int{owner})
				win.WaitEpoch()
				r.Compute(work)
			}
		}
		win.Quiesce()
		r.Barrier()
		if r.ID == 0 {
			total = r.Now() - t0
		}
		comm[r.ID] = float64(r.TimeInMPI-mpiT0) / float64(r.Now()-t0)
	})
	var commSum float64
	for _, c := range comm {
		commSum += c
	}
	return LUResult{
		N: n, M: m, Series: series,
		Total:    total,
		CommPct:  commSum / float64(n) * 100,
		PerRankS: float64(total) / float64(sim.Second),
	}
}

// luWorkTime models the time rank r spends updating its own rows below k
// after row k is available: each owned row j > k costs (m-k) multiply-
// subtract updates.
func luWorkTime(rank, n, m, k int, flopNs float64) sim.Time {
	rows := ownedRowsBelow(rank, n, m, k)
	return sim.Time(float64(rows) * float64(m-k) * flopNs)
}

// ownedRowsBelow counts rows j with j > k owned by rank under cyclic
// mapping (j % n == rank).
func ownedRowsBelow(rank, n, m, k int) int {
	// First owned row strictly greater than k.
	j0 := (k/n)*n + rank
	for j0 <= k {
		j0 += n
	}
	if j0 >= m {
		return 0
	}
	return (m-1-j0)/n + 1
}
