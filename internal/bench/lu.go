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
	return luCell(n, series, p, true).result()
}

// luRun is one LU cell: the parameters every rank's program reads, and the
// world, windows and readings once it has run.
type luRun struct {
	n      int
	series Series
	p      LUParams
	world  *mpi.World
	rt     *core.Runtime
	wins   []*core.Window
	total  sim.Time
	// Per-rank slots, each written only by its own rank (shard-safe), summed
	// in fixed rank order by result so the reading is shard-count invariant.
	comm []float64
}

// luCell runs one LU cell in the given rank execution form
// (mpi.World.RunProgram; TestAppTaskParity pins the two against each other).
func luCell(n int, series Series, p LUParams, tasks bool) *luRun {
	run := &luRun{n: n, series: series, p: p, wins: make([]*core.Window, n), comm: make([]float64, n)}
	run.world = mpi.NewWorldShards(n, Config(), Shards())
	run.rt = core.NewRuntime(run.world)
	err := run.world.RunProgram(func(r *mpi.Rank) sim.Task {
		return &luProgram{run: run, r: r, group: others(n, r.ID)}
	}, tasks)
	if err != nil {
		panic(fmt.Sprintf("bench: simulation failed: %v", err))
	}
	return run
}

// result aggregates the cell's readings.
func (run *luRun) result() LUResult {
	var commSum float64
	for _, c := range run.comm {
		commSum += c
	}
	return LUResult{
		N: run.n, M: run.p.M, Series: run.series,
		Total:    run.total,
		CommPct:  commSum / float64(run.n) * 100,
		PerRankS: float64(run.total) / float64(sim.Second),
	}
}

// luProgram is the LU skeleton's rank program, one step per MPI call (see
// scaleProgram). CreateWindow and Barrier, then for every row k the rank's
// role in it:
//
//	owner, blocking:     Start; puts; Compute; Complete  (in-epoch overlap -> Late Complete)
//	owner, nonblocking:  IStart; puts; IComplete; Compute; Wait
//	every other rank:    Post; WaitEpoch; Compute
//	the only rank:       Compute
//
// then Quiesce and Barrier. The nonblocking owner overlaps its update work
// both with the transfers (the epoch is already closed) and with the peers'.
type luProgram struct {
	run   *luRun
	r     *mpi.Rank
	group []int // every other rank: the owner's access group

	win        *core.Window
	step       int // the call to make next (lu* constants)
	k, put     int // the current row; puts made in it
	role       int // the rank's part in row k (lu* roles)
	owner      [1]int
	size       int64    // nonzero bytes of row k
	work       sim.Time // the rank's update work after row k
	t0, mpiT0  sim.Time
	closingReq *mpi.Request // the nonblocking owner's IComplete
}

// The program's steps, in program order.
const (
	luCreate = iota
	luBarrier
	luStamp
	luRow
	luOpen
	luPut
	luNextPut
	luClose
	luCompute
	luFinish
	luNextRow
	luQuiesce
	luEndBarrier
	luSample
	luExit
)

// A rank's part in one row.
const (
	luPeer  = iota // receives the row
	luOwner        // broadcasts the row to every peer
	luSolo         // owns it in a one-rank job: nothing to send
)

func (t *luProgram) Step(p *sim.Proc) {
	r, win, run := t.r, t.win, t.run
	nb := run.series.Nonblocking()
	for {
		switch t.step {
		case luCreate:
			win = run.rt.CreateWindow(r, int64(run.p.M)*8, core.WinOptions{Mode: run.series.Mode(), ShapeOnly: true})
			t.win, run.wins[r.ID] = win, win
		case luBarrier:
			r.Barrier()
		case luStamp:
			t.t0, t.mpiT0 = r.Now(), r.TimeInMPI
		case luRow:
			m, n, k := run.p.M, run.n, t.k
			if k == m {
				t.step = luQuiesce
				continue
			}
			t.size = int64(m-k) * 8
			t.work = luWorkTime(r.ID, n, m, k, run.p.FlopNs)
			switch owner := k % n; {
			case r.ID != owner:
				t.role, t.owner[0] = luPeer, owner
			case n == 1:
				t.role = luSolo
			default:
				t.role = luOwner
			}
		case luOpen:
			switch {
			case t.role == luPeer:
				win.Post(t.owner[:])
			case t.role == luSolo:
			case nb:
				win.IStart(t.group)
			default:
				win.Start(t.group)
			}
		case luPut:
			if t.role != luOwner {
				t.step = luClose
				continue
			}
			win.Put(t.group[t.put], 0, nil, t.size)
		case luNextPut:
			if t.put++; t.put < len(t.group) {
				t.step = luPut
				continue
			}
			t.put = 0
		case luClose:
			switch {
			case t.role == luPeer:
				win.WaitEpoch()
			case t.role == luOwner && nb:
				if q := win.IComplete(); !r.Pending() {
					t.closingReq = q
				}
			}
		case luCompute:
			r.Compute(t.work)
		case luFinish:
			switch {
			case t.role != luOwner:
			case nb:
				r.Wait(t.closingReq)
			default:
				win.Complete()
			}
		case luNextRow:
			t.k++
			t.closingReq = nil
			t.step = luRow
			continue
		case luQuiesce:
			win.Quiesce()
		case luEndBarrier:
			r.Barrier()
		case luSample:
			if r.ID == 0 {
				run.total = r.Now() - t.t0
			}
			run.comm[r.ID] = float64(r.TimeInMPI-t.mpiT0) / float64(r.Now()-t.t0)
		case luExit:
			p.TaskExit()
			return
		}
		if r.Pending() {
			return
		}
		t.step++
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
