package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FigFaultSweep: epoch-plus-overlap completion time versus fabric drop
// rate, blocking against nonblocking. Two ranks run a GATS epoch of
// SweepPuts chunked puts (64 KB total) while the origin has OverlapWork of
// independent computation available. On a pristine fabric the nonblocking
// series hides the whole epoch behind the work; as the drop rate grows,
// retransmission delay eats into the overlap budget first — so the
// nonblocking series degrades later and more gently than the blocking
// ones, which pay every retransmitted round trip on the critical path.
//
// Each (rate, series) cell runs on its own fault schedule seeded from the
// cell coordinates, so the whole figure is bit-reproducible.

// OverlapWork is the origin-side computation available for overlap in the
// fault sweep (a few times the clean epoch latency).
const OverlapWork = 100 * sim.Microsecond

// SweepPuts chunked puts of SweepChunk bytes form each swept epoch; many
// small packets give the drop schedule a realistic per-epoch surface.
const (
	SweepPuts  = 32
	SweepChunk = int64(2 << 10)
)

// FaultRates are the swept per-packet drop probabilities ("off" disables
// the injector entirely — the compiled-in-but-disabled baseline).
var FaultRates = []float64{0, 1e-4, 1e-3, 1e-2}

func rateLabel(r float64) string {
	if r == 0 {
		return "off"
	}
	return fmt.Sprintf("%.0e", r)
}

// FigFaultSweep measures the sweep, averaging iters epochs per cell.
func FigFaultSweep(iters int) *stats.Table {
	return grid("Fault sweep: epoch + overlap completion vs drop rate", "us", "drop",
		labels(FaultRates, rateLabel), labels(AllSeries, Series.String),
		func(ri, si int) float64 { return faultSweepCell(FaultRates[ri], AllSeries[si], ri, si, iters) })
}

// faultSweepCell runs one (rate, series) cell: iters GATS epochs of
// SweepPuts chunked puts with OverlapWork of origin-side computation each.
func faultSweepCell(rate float64, s Series, ri, si, iters int) float64 {
	var samples []sim.Time
	arm := func(w *mpi.World) {
		if rate > 0 {
			w.Net.EnableFaults(fabric.FaultProfile{Seed: 0xFA_01A5EE9 + uint64(ri)<<8 + uint64(si), Drop: rate})
		}
	}
	runWorldSetup(2, Config(), arm, func(r *mpi.Rank, rt *core.Runtime) {
		win := rt.CreateWindow(r, SweepPuts*SweepChunk, core.WinOptions{Mode: s.Mode(), ShapeOnly: true})
		puts := func() {
			for i := int64(0); i < SweepPuts; i++ {
				win.Put(1, i*SweepChunk, nil, SweepChunk)
			}
		}
		for it := 0; it < iters; it++ {
			r.Barrier()
			t0 := r.Now()
			if r.ID == 0 { // origin
				if s.Nonblocking() {
					win.IStart([]int{1})
					puts()
					req := win.IComplete()
					r.Compute(OverlapWork)
					r.Wait(req)
				} else {
					win.Start([]int{1})
					puts()
					win.Complete()
					r.Compute(OverlapWork)
				}
				samples = append(samples, r.Now()-t0)
			} else { // target
				win.Post([]int{0})
				win.WaitEpoch()
			}
		}
		win.Quiesce()
	})
	return mean(samples)
}
