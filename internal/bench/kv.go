package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/kvstore"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FigKV: the chaos-serving figure. A replicated KV store (internal/kvstore)
// serves seeded open-loop Zipfian traffic while a scheduled fault kills one
// server rank mid-run; the figure plots acknowledged throughput and tail
// latency (p99/p999) against virtual time across the event, one column per
// RMA mode. The healthy bins establish the baseline, the death bin shows the
// detection+failover stall, and the following bins show recovered (degraded)
// service against the replicas — graceful degradation, not collapse.
//
// The scenario is deterministic: the same Options produce a bit-identical
// Result at any -workers or -shards setting, and the oracle (zero
// acknowledged-write loss on the surviving copies) is enforced before the
// table is rendered.

// KV scenario shape: one server death a third of the way into the run, with
// a slowed failure detector so the stall is visible at bin resolution.
const (
	kvDeathRank   = 1
	kvDeathAt     = 600 * sim.Microsecond
	kvDetectDelay = 150 * sim.Microsecond
	kvBinWidth    = 200 * sim.Microsecond
	kvOps         = 96 // per client; ~2ms of open-loop traffic
)

// kvModes are the figure's columns.
var kvModes = []core.Mode{core.ModeVanilla, core.ModeNew, core.ModeFlush}

// KVScenarioOptions returns the canonical chaos scenario FigKV runs for one
// mode: DefaultOptions traffic, lengthened to kvOps requests per client,
// with server kvDeathRank dying at kvDeathAt. Exported so CI and tests can
// pin the very same scenario the published figure uses.
func KVScenarioOptions(mode core.Mode) kvstore.Options {
	opt := kvstore.DefaultOptions()
	opt.Mode = mode
	opt.OpsPerClient = kvOps
	opt.BinWidth = kvBinWidth
	opt.Schedule = fabric.FaultProfile{
		Seed:        5,
		Deaths:      []fabric.RankDeath{{Rank: kvDeathRank, At: kvDeathAt}},
		DetectDelay: kvDetectDelay,
	}
	opt.Shards = Shards()
	return opt
}

// KVReport is FigKV's multi-table result: totals per mode, then the binned
// throughput and tail-latency series. All fields are exported so the report
// marshals to JSON for the BENCH_kv.json artifact.
type KVReport struct {
	Summary *stats.Table // per-mode totals over the whole run
	Tput    *stats.Table // acknowledged requests per bin
	P99     *stats.Table // per-bin p99 latency, us (-1: no completions)
	P999    *stats.Table // per-bin p999 latency, us (-1: no completions)
}

// String renders the four tables in presentation order.
func (r *KVReport) String() string {
	return r.Summary.String() + "\n" + r.Tput.String() + "\n" + r.P99.String() + "\n" + r.P999.String()
}

// kvSummaryRows are the Summary table's row labels.
var kvSummaryRows = []string{
	"acked", "acked degraded", "shed", "failed",
	"retries", "failovers", "windows poisoned", "throughput ops/s",
}

// FigKV measures the chaos scenario under every mode. The simulation is
// deterministic, so there is nothing to average: iters is ignored (kept for
// the uniform experiment signature). Modes run as independent simulations
// across par.Workers; the tables are bit-identical at any worker count.
func FigKV(iters int) *KVReport {
	_ = iters
	results := par.Map(len(kvModes), func(i int) *kvstore.Result {
		return kvstore.Run(KVScenarioOptions(kvModes[i]))
	})
	cols := labels(kvModes, core.Mode.String)
	nbins := 0
	for i, m := range kvModes {
		if res := results[i]; len(res.OracleViolations) > 0 {
			panic(fmt.Sprintf("bench: kv oracle violated under %s: %s", m, res.OracleViolations[0]))
		}
		if len(results[i].Bins) > nbins {
			nbins = len(results[i].Bins)
		}
	}

	title := fmt.Sprintf("KV chaos serving: server %d dies at t=%dus (detected +%dus)",
		kvDeathRank, kvDeathAt/sim.Microsecond, kvDetectDelay/sim.Microsecond)
	summary := stats.NewTable(title, "", "metric", kvSummaryRows, cols)
	binRows := make([]string, nbins)
	for b := range binRows {
		binRows[b] = fmt.Sprintf("%dus", sim.Time(b)*kvBinWidth/sim.Microsecond)
	}
	tput := stats.NewTable("KV acknowledged requests per bin", "ops", "t", binRows, cols)
	p99 := stats.NewTable("KV p99 latency per bin", "us", "t", binRows, cols)
	p999 := stats.NewTable("KV p999 latency per bin", "us", "t", binRows, cols)

	for i := range kvModes {
		res := results[i]
		summary.Set("acked", cols[i], float64(res.Acked))
		summary.Set("acked degraded", cols[i], float64(res.AckedDeg))
		summary.Set("shed", cols[i], float64(res.ShedOps))
		summary.Set("failed", cols[i], float64(res.FailedOps))
		summary.Set("retries", cols[i], float64(res.Retries))
		summary.Set("failovers", cols[i], float64(res.Failovers))
		summary.Set("windows poisoned", cols[i], float64(res.WinsPoisoned))
		summary.Set("throughput ops/s", cols[i], res.Throughput())
		for b := 0; b < nbins; b++ {
			if b >= len(res.Bins) {
				// This mode finished earlier than the slowest one: empty bin.
				p99.Set(binRows[b], cols[i], -1)
				p999.Set(binRows[b], cols[i], -1)
				continue
			}
			bin := res.Bins[b]
			tput.Set(binRows[b], cols[i], float64(bin.Acked))
			p99.Set(binRows[b], cols[i], latUS(bin.P99))
			p999.Set(binRows[b], cols[i], latUS(bin.P999))
		}
	}
	return &KVReport{Summary: summary, Tput: tput, P99: p99, P999: p999}
}

// latUS converts a bin percentile to microseconds, preserving the -1
// "no completions" sentinel.
func latUS(t sim.Time) float64 {
	if t < 0 {
		return -1
	}
	return us(t)
}
