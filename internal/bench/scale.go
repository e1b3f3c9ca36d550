package bench

import (
	"fmt"
	"math/bits"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// FigScale: epoch synchronization at scale on a congested fat-tree.
//
// The rank count grows (64 -> 512 hosts) while the fabric core stays fixed
// — ScaleLeaves leaf and ScaleSpines spine switches, the cluster-grows-
// but-the-core-doesn't regime that caps the paper's 512-proc runs — so
// leaf-uplink oversubscription climbs from 1:1 to 8:1 across the sweep and
// every synchronization packet queues longer as ranks are added. Each
// iteration every rank runs one both-roles GATS epoch against log2(n)
// strided partners (a dissemination-style group whose long strides must
// cross the spine layer) with a small put per partner, then ScaleWork of
// independent computation. The blocking series pay the congested
// synchronization on the critical path, so they degrade as ranks are
// added; the nonblocking series overlaps it with the computation and stays
// near the compute bound. The congestion tables attribute the gap: queued
// time and credit stalls climb with the rank count for every series — the
// nonblocking series does not avoid the contention, it hides it.
//
// The fourth column runs the same traffic in flush mode (core.ModeFlush):
// lock_all once, per-iteration puts + IFlushAll overlapped with the
// computation — no epoch synchronization packets at all, so it tracks the
// nonblocking series from the other side of the design space.
//
// Each (ranks, series) cell is an independent simulation, so the figure is
// bit-identical at any -workers count.

// Scale experiment parameters.
const (
	// ScaleWork is the per-iteration independent computation available for
	// overlap — comfortably above the congested synchronization time at
	// the largest rank count, so the nonblocking series stays flat.
	ScaleWork = 1000 * sim.Microsecond
	// ScaleChunk is the put payload per partner; small enough that the
	// figure measures synchronization traffic, large enough that the
	// traffic actually occupies shared links.
	ScaleChunk = int64(8 << 10)
	// ScaleLeaves and ScaleSpines fix the fabric core: ranks are packed
	// onto the same ScaleLeaves leaf switches as the job grows, so hosts
	// per leaf — and uplink oversubscription — grow linearly with n.
	ScaleLeaves = 8
	ScaleSpines = 8
)

// ScaleRanks is the swept job size (hosts on the fat-tree).
var ScaleRanks = []int{64, 128, 256, 512}

// ScaleReport bundles the scaling figure's latency table with the
// congestion tables that attribute it.
type ScaleReport struct {
	Latency *stats.Table // mean per-iteration completion, us
	Queued  *stats.Table // fabric link-queue time per iteration, us
	Stalls  *stats.Table // credit-stall episodes per iteration
}

// String renders the three tables in presentation order.
func (r *ScaleReport) String() string {
	var b strings.Builder
	b.WriteString(r.Latency.String())
	b.WriteString(r.Queued.String())
	b.WriteString(r.Stalls.String())
	return strings.TrimRight(b.String(), "\n")
}

// scaleMeasure is one cell's outcome.
type scaleMeasure struct {
	lat, queued, stalls float64
}

// FigScale measures the sweep, averaging iters epochs per cell.
func FigScale(iters int) *ScaleReport { return FigScaleRanks(ScaleRanks, iters) }

// FigScaleRanks measures the scaling figure over an explicit rank list
// (each a power of two). cmd/epochbench's "scale1k" experiment uses it for
// the deep 1024-rank point the sharded kernel makes affordable.
func FigScaleRanks(ranks []int, iters int) *ScaleReport {
	rows, cols := labels(ranks, strconv.Itoa), labels(ScaleSeries, Series.String)
	rep := &ScaleReport{
		Latency: stats.NewTable("Scale: epoch/flush + overlap completion vs ranks (fat-tree, fixed core)", "us", "ranks", rows, cols),
		Queued:  stats.NewTable("Scale: fabric link-queue time per iteration", "us", "ranks", rows, cols),
		Stalls:  stats.NewTable("Scale: link credit-stall episodes per iteration", "", "ranks", rows, cols),
	}
	cells := par.Map(len(ranks)*len(ScaleSeries), func(j int) scaleMeasure {
		ni, si := j/len(ScaleSeries), j%len(ScaleSeries)
		return scaleCell(ranks[ni], ScaleSeries[si], iters)
	})
	for j, m := range cells {
		ni, si := j/len(ScaleSeries), j%len(ScaleSeries)
		rep.Latency.Cells[ni][si] = m.lat
		rep.Queued.Cells[ni][si] = m.queued
		rep.Stalls.Cells[ni][si] = m.stalls
	}
	return rep
}

// scaleGroup returns me's dissemination partners at strides n/2, n/4, .. 1
// in direction dir (+1: access-side targets, -1: exposure-side origins —
// the exposure group must be the inverse of the access group so every
// posted exposure matches exactly the origins that will start toward it).
func scaleGroup(n, me, dir int) []int {
	g := make([]int, 0, bits.Len(uint(n))-1) // log2(n) partners, n a power of two
	for d := n / 2; d >= 1; d /= 2 {
		g = append(g, ((me+dir*d)%n+n)%n)
	}
	return g
}

// ScaleTopo returns the fat-tree shape for an n-rank job: the fixed
// ScaleLeaves x ScaleSpines core with hosts packed evenly onto the leaves
// (bandwidth and hop latency inherit the fabric calibration).
func ScaleTopo(n int) topo.Spec {
	perLeaf := (n + ScaleLeaves - 1) / ScaleLeaves
	return topo.Spec{Kind: topo.FatTree, HostsPerLeaf: perLeaf, Spines: ScaleSpines}
}

// scaleWinOptions is the per-cell window configuration. AAER lets the new
// design's access epoch progress inside the still-open exposure epoch (the
// both-roles pattern of Fig 9); vanilla activates every epoch immediately
// and ignores the info.
func scaleWinOptions(s Series) core.WinOptions {
	return core.WinOptions{Mode: s.Mode(), ShapeOnly: true, Info: core.Info{AAER: true}}
}

// scaleCell runs one (ranks, series) cell: iters both-roles GATS epochs of
// log2(n) strided partners with ScaleWork of computation each. This is the
// figure the kernel shards exist for: one 512-rank simulation saturates a
// core, so the cell runs on Shards() kernels when -shards is set. Samples
// land in per-rank slots (each written only by its own rank's shard) and
// aggregate rank-major, so the cell's numbers are bit-identical at any
// shard count.
//
// A cell's world is practically the process's whole live heap, and cells run
// back to back, so the previous cell's world — garbage by now — is collected
// here rather than whenever the pacer next decides to. Left to itself, a GC
// cycle that starts in the last milliseconds of one cell marks that world and,
// allocate-black, the next one's build as well, sets its heap goal from two
// worlds, and the process peaks at two of them: 44-56 MiB against 39-41 at 512
// ranks, in 5 benchmark runs of 24 — and in 9 of 24 once the cell ran 40 %
// faster, which shortens the interval between cycles and fits more cell
// boundaries into a run (EXPERIMENTS, "Event queue and credit wake-ups").
func scaleCell(n int, s Series, iters int) scaleMeasure {
	runtime.GC()
	run := scaleCellMode(n, s, iters, true)
	flat := make([]sim.Time, 0, n*iters)
	for _, ss := range run.Samples {
		flat = append(flat, ss...)
	}
	fab := run.World.Net.Counters.Row(n) // the fabric-wide row
	return scaleMeasure{
		lat:    mean(flat),
		queued: us(sim.Time(fab.Get(topoQueued))) / float64(iters),
		stalls: float64(fab.Get(topoStalls)) / float64(iters),
	}
}

// The topology engine's counters the scale figure reports.
var topoQueued, topoStalls = metrics.Lookup("topo.queued_ns"), metrics.Lookup("topo.credit_stalls")

// scaleCellMode runs a cell in the given rank execution form: task ranks
// (tasks=true, what the figure uses — 64k ranks fit one process without 64k
// coroutine stacks) or coroutine ranks (TestScaleTaskParity pins
// bit-identity between the two).
//
// A rank's program is, per iteration,
//
//	blocking:     Barrier; Post; Start; puts; Complete; WaitEpoch; Compute
//	nonblocking:  Barrier; IPost; IStart; puts; IComplete; IWait; Compute; Wait
//	flush:        Barrier; puts; IFlushAll; Compute; Wait
//
// between CreateWindow (flush: + LockAll) and (flush: UnlockAll +) Quiesce.
// The flush series is the epochless idiom: lock_all once for the window's
// lifetime (one conditional atomic at the master, whatever n), then per
// iteration puts + a window-wide flush overlapped with the computation; the
// per-iteration barrier provides the target-side ordering an exposure epoch
// would.
func scaleCellMode(n int, s Series, iters int, tasks bool) *prog.Run {
	if n&(n-1) != 0 || n < 2 {
		panic(fmt.Sprintf("bench: scale rank count %d is not a power of two", n))
	}
	cfg := Config()
	cfg.Topo = ScaleTopo(n)
	run := prog.NewRun(mpi.NewWorldShards(n, cfg, Shards()), prog.Window{Size: int64(n) * ScaleChunk, Opt: scaleWinOptions(s)})
	run.Slots(n, iters)
	pre, epi := createOnly, quiesceOnly
	if s == SeriesFlush {
		pre, epi = []op{create, {Kind: prog.LockAll}}, []op{{Kind: prog.UnlockAll}, quiesce}
	}
	err := run.Exec(func(r *mpi.Rank) prog.Program {
		tg := scaleGroup(n, r.ID, +1)
		body := make([]op, 0, len(tg)+9)
		body = append(body, barrier, stamp)
		switch {
		case s == SeriesFlush:
		case s.Nonblocking():
			body = append(body, ipost(1), istart(0))
		default:
			body = append(body, post(1), start(0))
		}
		for _, peer := range tg {
			body = append(body, op{Kind: prog.Put, Peer: int32(peer), Off: int64(r.ID) * ScaleChunk, Size: ScaleChunk})
		}
		switch {
		case s == SeriesFlush:
			body = append(body, op{Kind: prog.IFlushAll}, compute(ScaleWork), wait)
		case s.Nonblocking():
			body = append(body, icomplete, iwait, compute(ScaleWork), wait)
		default:
			body = append(body, complete, waitEpoch, compute(ScaleWork))
		}
		body = append(body, sample(r.ID))
		return prog.Program{Pre: pre, Body: body, Post: epi, Iters: iters, Groups: [][]int{tg, scaleGroup(n, r.ID, -1)}}
	}, tasks)
	if err != nil {
		panic(fmt.Sprintf("bench: scale (n=%d, %s) failed: %v", n, s, err))
	}
	return run
}
