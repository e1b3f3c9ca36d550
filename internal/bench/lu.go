package bench

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/prog"
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
	return luCell(n, series, p, true).result()
}

// luRun is one LU cell once it has run: its world, windows and samples —
// rank r's elapsed time in slot r and its MPI time in slot n+r.
type luRun struct {
	*prog.Run
	n      int
	series Series
	p      LUParams
}

// luCell runs one LU cell in the given rank execution form (prog.Run.Exec;
// TestAppTaskParity pins the two against each other). A rank's program is
// CreateWindow and Barrier, then for every row k the rank's role in it:
//
//	owner, blocking:     Start; puts; Compute; Complete  (in-epoch overlap -> Late Complete)
//	owner, nonblocking:  IStart; puts; IComplete; Compute; Wait
//	every other rank:    Post; WaitEpoch; Compute
//	the only rank:       Compute
//
// then Quiesce and Barrier. The nonblocking owner overlaps its update work
// both with the transfers (the epoch is already closed) and with the peers'.
func luCell(n int, series Series, p LUParams, tasks bool) *luRun {
	win := prog.Window{Size: int64(p.M) * 8, Opt: core.WinOptions{Mode: series.Mode(), ShapeOnly: true}}
	run := &luRun{Run: prog.NewRun(mpi.NewWorldShards(n, Config(), Shards()), win), n: n, series: series, p: p}
	run.Slots(2*n, 1)
	pre, body := []op{create, barrier, stamp}, []op{{Kind: prog.Gen}}
	open, finish := start(0), []op{compute(0), complete}
	if series.Nonblocking() {
		open, finish = istart(0), []op{icomplete, compute(0), wait}
	}
	err := run.Exec(func(r *mpi.Rank) prog.Program {
		group := others(n, r.ID)
		g := &luGen{rank: r.ID, n: n, p: p, owner: append(make([]op, 0, n+3), open),
			peer: []op{post(1), waitEpoch, compute(0)}, solo: []op{compute(0)}}
		for _, peer := range group {
			g.owner = append(g.owner, put(peer, 0))
		}
		g.owner = append(g.owner, finish...)
		epi := []op{quiesce, barrier, sample(r.ID), {Kind: prog.SampleMPI, Arg: int32(n + r.ID)}}
		return prog.Program{Pre: pre, Body: body, Post: epi, Iters: p.M, Groups: [][]int{group, g.rowOwner[:]}, Gen: g}
	}, tasks)
	if err != nil {
		panic(fmt.Sprintf("bench: simulation failed: %v", err))
	}
	return run
}

// result aggregates the cell's readings, summing the per-rank communication
// shares in fixed rank order so the reading is shard-count invariant.
func (run *luRun) result() LUResult {
	var commSum float64
	for r := range run.n {
		commSum += float64(run.Samples[run.n+r][0]) / float64(run.Samples[r][0])
	}
	total := run.Samples[0][0]
	return LUResult{
		N: run.n, M: run.p.M, Series: run.series,
		Total:    total,
		CommPct:  commSum / float64(run.n) * 100,
		PerRankS: float64(total) / float64(sim.Second),
	}
}

// luGen is a rank's walk over the rows: every Next picks the rank's block for
// the next row — owner, peer or solo, each built once — and patches its put
// sizes and update work in place.
type luGen struct {
	rank, n, k        int
	p                 LUParams
	rowOwner          [1]int // the peer block's Post group
	owner, peer, solo []op
}

func (g *luGen) Next(error) []op {
	m, k := g.p.M, g.k
	g.k++
	blk := g.owner
	switch owner := k % g.n; {
	case g.rank != owner:
		g.rowOwner[0], blk = owner, g.peer
	case g.n == 1:
		blk = g.solo
	}
	for i := range blk {
		switch blk[i].Kind {
		case prog.Put:
			blk[i].Size = int64(m-k) * 8
		case prog.Compute:
			blk[i].Size = luWorkTime(g.rank, g.n, m, k, g.p.FlopNs)
		}
	}
	return blk
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
