package main

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/topo"
)

// A workload is a fixed sequence of calls into the repo's public entry
// points (the ones cmd/epochbench, cmd/txn, cmd/lu and cmd/fuzz call); one
// pass over the sequence is a unit. Calls write what they produced into the
// unit's outcome: the rendered output (hashed into sim_digest), the
// workload's headline simulated latency, and any violated invariant.
type workload struct {
	name  string
	calls []call
}

type call struct {
	name string // span name: span_cpu_ms.<name>
	run  func(o *outcome, seed uint64, unit int)
}

// outcome collects one unit's results.
type outcome struct {
	out      strings.Builder // every rendered table / campaign verdict
	latency  float64         // sim_latency_us: the workload's headline, virtual us
	luNew    float64         // LU total under New, for the nonblocking <= blocking check
	problems []string
}

func (o *outcome) emit(v any) { fmt.Fprintln(&o.out, v) }

func (o *outcome) failf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

const (
	patternIters = 100 // the paper's averaging, what epochbench -iters 100 regenerates
	scaleRanks   = 512
	scaleIters   = 4
	txnRanks     = 64
	luRanks      = 32
	luMatrix     = 512
	seedsPerUnit = 8
	sweepIters   = 20
)

// table wraps a figure generator whose result only feeds the digest.
func table(name string, f func() fmt.Stringer) call {
	return call{name, func(o *outcome, _ uint64, _ int) { o.emit(f()) }}
}

var workloads = []workload{
	{"patterns", []call{
		{"fig2", func(o *outcome, _ uint64, _ int) {
			t := bench.Fig2LatePost(patternIters)
			o.emit(t)
			nb, blocking := t.Get("two-sided", "New nonblocking"), t.Get("two-sided", "New")
			if !(nb < blocking) {
				o.failf("fig2: two-sided under New nonblocking (%.2f us) is not below New (%.2f us)", nb, blocking)
			}
			o.latency = t.Get("cumulative", "New nonblocking")
		}},
		table("fig3", func() fmt.Stringer { return bench.Fig3LateComplete(patternIters, bench.SweepSizes) }),
		table("fig4", func() fmt.Stringer { return bench.Fig4EarlyFence(patternIters) }),
		table("fig5", func() fmt.Stringer { return bench.Fig5WaitAtFence(patternIters, bench.SweepSizes) }),
		table("fig6", func() fmt.Stringer { return bench.Fig6LateUnlock(patternIters) }),
		table("fig7", func() fmt.Stringer { return bench.Fig7AAARGats(patternIters) }),
		table("fig8", func() fmt.Stringer { return bench.Fig8AAARLock(patternIters) }),
		table("fig9", func() fmt.Stringer { return bench.Fig9AAER(patternIters) }),
		table("fig10", func() fmt.Stringer { return bench.Fig10EAER(patternIters) }),
		table("fig11", func() fmt.Stringer { return bench.Fig11EAAR(patternIters) }),
		table("modes", func() fmt.Stringer { return bench.FigModes(patternIters) }),
		table("signal", func() fmt.Stringer { return bench.FigSignal(patternIters) }),
		table("parity", func() fmt.Stringer { return bench.LatencyParity(patternIters, 1<<20) }),
		table("overlap", func() fmt.Stringer { return bench.OverlapTable(patternIters) }),
	}},
	{"scale512", []call{
		{"cell512", func(o *outcome, _ uint64, _ int) {
			rep := bench.FigScaleRanks([]int{scaleRanks}, scaleIters)
			o.emit(rep)
			row := fmt.Sprint(scaleRanks)
			lat := func(s bench.Series) float64 { return rep.Latency.Get(row, s.String()) }
			if !(lat(bench.SeriesNewNB) <= lat(bench.SeriesNew)) {
				o.failf("cell512: New nonblocking (%.2f us) above New (%.2f us)", lat(bench.SeriesNewNB), lat(bench.SeriesNew))
			}
			if !(lat(bench.SeriesFlush) <= lat(bench.SeriesMVAPICH)) {
				o.failf("cell512: Flush (%.2f us) above MVAPICH (%.2f us)", lat(bench.SeriesFlush), lat(bench.SeriesMVAPICH))
			}
			o.latency = lat(bench.SeriesNewNB)
		}},
	}},
	{"apps", appsCalls()},
	{"fuzz_chaos", []call{
		arm("arm_plain", func(seed uint64, m core.Mode) *fuzz.Failure { return fuzz.CheckSeed(seed, m) }),
		arm("arm_lossy", func(seed uint64, m core.Mode) *fuzz.Failure { return fuzz.CheckSeedFaults(seed, m, true) }),
		arm("arm_fattree", func(seed uint64, m core.Mode) *fuzz.Failure { return fuzz.CheckSeedTopo(seed, m, true, topo.FatTree) }),
		{"arm_signal", func(o *outcome, seed uint64, unit int) {
			eachSeed(o, seed, unit, func(s uint64) *fuzz.Failure {
				return fuzz.CheckSeedSignal(s, core.ModeNew, false, topo.Crossbar, 0)
			})
		}},
		{"arm_kv", func(o *outcome, seed uint64, unit int) {
			eachSeed(o, seed, unit, func(s uint64) *fuzz.Failure { return fuzz.CheckKVSeed(s, 0) })
		}},
		{"fig14", func(o *outcome, _ uint64, _ int) {
			t := bench.FigFaultSweep(sweepIters)
			o.emit(t)
			o.latency = t.Get(t.Rows[len(t.Rows)-1], bench.SeriesNew.String()) // highest drop rate
		}},
		table("figkv", func() fmt.Stringer { return bench.FigKV(1) }), // panics on an oracle violation
	}},
}

// appsCalls is the paper's Fig 12/13 applications: every transaction series
// at 64 ranks, every LU series at 32 ranks on a 512^2 matrix.
func appsCalls() []call {
	var cs []call
	txnNames := []string{"txn_mvapich", "txn_new", "txn_newnb", "txn_aaar"}
	for i, s := range bench.AllTxnSeries {
		s := s
		cs = append(cs, call{txnNames[i], func(o *outcome, _ uint64, _ int) {
			o.emit(bench.RunTxn(txnRanks, s, bench.DefaultTxnParams()))
		}})
	}
	luNames := []string{"lu_mvapich", "lu_new", "lu_newnb"}
	for i, s := range bench.AllSeries {
		s := s
		cs = append(cs, call{luNames[i], func(o *outcome, _ uint64, _ int) {
			res := bench.RunLU(luRanks, s, bench.DefaultLUParams(luMatrix))
			o.emit(fmt.Sprintf("%+v", res))
			total := float64(res.Total) / 1e3 // virtual ns -> us
			switch s {
			case bench.SeriesNew:
				o.luNew = total
			case bench.SeriesNewNB: // runs after lu_new: calls of a unit run in order
				if !(total <= o.luNew) {
					o.failf("lu: New nonblocking total (%.2f us) above New (%.2f us)", total, o.luNew)
				}
				o.latency = total
			}
		}})
	}
	return cs
}

var fuzzModes = []core.Mode{core.ModeNew, core.ModeVanilla, core.ModeFlush}

// arm runs one fuzz campaign arm over the unit's seeds under every mode.
func arm(name string, check func(seed uint64, m core.Mode) *fuzz.Failure) call {
	return call{name, func(o *outcome, seed uint64, unit int) {
		for _, m := range fuzzModes {
			m := m
			eachSeed(o, seed, unit, func(s uint64) *fuzz.Failure { return check(s, m) })
		}
	}}
}

// eachSeed checks the unit's seeds: unit u of a run started with -seed S
// takes S+8u .. S+8u+7. A clean seed contributes "ok" to the digest, so the
// digest of a clean unit is the same whatever its seeds.
func eachSeed(o *outcome, seed uint64, unit int, check func(s uint64) *fuzz.Failure) {
	for i := 0; i < seedsPerUnit; i++ {
		if f := check(seed + uint64(unit*seedsPerUnit+i)); f != nil {
			o.failf("%v", f)
			o.emit(f)
		} else {
			o.emit("ok")
		}
	}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
