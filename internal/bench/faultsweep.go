package bench

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/prog"
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
		func(ri, si int) float64 {
			return faultSweepCell(FaultRates[ri], AllSeries[si], ri, si, iters).measure()[0]
		})
}

// faultSweepCell is one (rate, series) cell: iters GATS epochs of
// SweepPuts chunked puts with OverlapWork of origin-side computation each.
func faultSweepCell(rate float64, s Series, ri, si, iters int) pattern {
	puts := make([]op, SweepPuts)
	for i := range puts {
		puts[i] = op{Kind: prog.Put, Peer: 1, Off: int64(i) * SweepChunk, Size: SweepChunk} // the i-th chunk
	}
	origin := slices.Concat([]op{barrier, stamp, start(1)}, puts, []op{complete, compute(OverlapWork), sample(0)})
	if s.Nonblocking() {
		origin = slices.Concat([]op{barrier, stamp, istart(1)}, puts, []op{icomplete, compute(OverlapWork), wait, sample(0)})
	}
	pt := pattern{winSize: SweepPuts * SweepChunk, opt: core.WinOptions{Mode: s.Mode()}, iters: iters,
		lists: [][]op{origin, {barrier, post(0), waitEpoch}}}
	if rate > 0 {
		pt.faults = &fabric.FaultProfile{Seed: 0xFA_01A5EE9 + uint64(ri)<<8 + uint64(si), Drop: rate}
	}
	return pt
}
