package bench

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - grant-triggered NIC-context issuing of recorded transfers (vs
//     CPU-engine-only issue): what buys the in-epoch overlap;
//   - the nonblocking pipeline depth: what buys Fig 12's contention
//     avoidance, and what the 512-core flow-control ceiling takes away;
//   - flow-control credits per peer: the substrate knob behind that
//     ceiling;
//   - per-call CPU overhead: what separates "New" from "New nonblocking"
//     in back-to-back epoch streams.

// triggeredOpsLag stages the ablation's target Post behind the origin's Put
// call (the mirror of runShape's origin staging). A grant that beats the put
// activates the epoch before there is anything recorded, and the put then
// issues from the origin's own call whatever the flag says — the case the
// ablation is about is the grant that lands while the origin computes.
// Without the lag, barrier-exit skew picks one case or the other on
// alternate iterations and the mean depends on the iteration count.
const triggeredOpsLag = 5 * sim.Microsecond

// AblationTriggeredOps measures the Fig 3 (Late Complete) target-side
// epoch with grant-triggered issuing on and off. Without triggered ops a
// computing origin cannot push its recorded put when the grant lands, so
// the target inherits the origin's work time even with nonblocking closes.
func AblationTriggeredOps(iters int) *stats.Table {
	return grid("Ablation: grant-triggered NIC issue (Fig 3 setting, nonblocking close)", "us", "variant",
		[]string{"triggered ops", "engine-only issue"}, []string{"target epoch"},
		func(variant, _ int) float64 {
			return lateComplete(SeriesNewNB, iters, BigMsg, core.WinOptions{NoTriggeredOps: variant == 1}, triggeredOpsLag).measure()[0]
		})
}

// ablationTxn is the transaction workload the three throughput ablations
// share, at Fig 12's seed; 24 is Fig 12's pipeline depth.
func ablationTxn(epochsPerRank, depth int) TxnParams {
	return TxnParams{EpochsPerRank: epochsPerRank, PipelineDepth: depth, Seed: 0x5eed}
}

// AblationPipelineDepth sweeps the nonblocking pipeline depth of the
// Fig 12 transaction workload at a fixed job size.
func AblationPipelineDepth(n int, depths []int, epochsPerRank int) *stats.Table {
	return grid(fmt.Sprintf("Ablation: pipeline depth (transactions, %d ranks, A_A_A_R)", n),
		"thousands of transactions/s", "depth", labels(depths, strconv.Itoa), []string{"throughput"},
		func(i, _ int) float64 { return RunTxn(n, TxnNewNBAAAR, ablationTxn(epochsPerRank, depths[i])) })
}

// AblationCredits sweeps per-peer flow-control credits for the same
// workload. Starving credits costs little (one credit: −2.4 % at 32
// ranks): random targets keep every per-peer queue shallow, so credits do
// not produce the paper's 512-core ceiling, which Fig 12 imposes as an
// input (TxnParams.CreditConstrained).
func AblationCredits(n int, credits []int, epochsPerRank int) *stats.Table {
	return grid(fmt.Sprintf("Ablation: flow-control credits per peer (transactions, %d ranks, A_A_A_R)", n),
		"thousands of transactions/s", "credits", labels(credits, strconv.Itoa), []string{"throughput"},
		func(i, _ int) float64 {
			cfg := Config()
			cfg.CreditsPerPeer = credits[i]
			return runTxn(n, cfg, TxnNewNBAAAR, ablationTxn(epochsPerRank, 24))
		})
}

// AblationCallOverhead sweeps the modeled per-MPI-call CPU cost and
// reports blocking vs nonblocking transaction throughput: the gap between
// "New" and "New nonblocking" for back-to-back epochs is exactly the
// serialized call overhead.
func AblationCallOverhead(n int, overheadsNs []int64, epochsPerRank int) *stats.Table {
	series := []TxnSeries{TxnNew, TxnNewNB}
	return grid(fmt.Sprintf("Ablation: per-call CPU overhead (transactions, %d ranks)", n),
		"thousands of transactions/s", "overhead",
		labels(overheadsNs, func(o int64) string { return fmt.Sprintf("%dns", o) }), labels(series, TxnSeries.String),
		func(oi, si int) float64 {
			cfg := Config()
			cfg.CallOverhead = overheadsNs[oi]
			return runTxn(n, cfg, series[si], ablationTxn(epochsPerRank, 24))
		})
}
