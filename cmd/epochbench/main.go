// Command epochbench regenerates every figure of the reproduction and
// prints paper-style tables: the paper's microbenchmarks (Figs 2-11), its two
// applications (Fig 12 transactions, Fig 13 LU) and the Section VIII-A
// latency/overlap observations, plus this repo's extensions — the design-
// choice ablations, figure 14 (the fault sweep: epoch latency vs fabric drop
// rate), the chaos-serving KV figure, the mode and signal-transport
// comparisons, and the "scale" figure (epoch synchronization at 64-512 ranks
// on a congested fat-tree) with its deep points.
//
// Usage:
//
//	epochbench                 # every figure but the deep ones (13, scale1k..)
//	epochbench -list           # enumerate figure ids with descriptions
//	epochbench -fig 6          # one figure
//	epochbench -fig 13         # LU at both matrix sizes (about 1.5 min)
//	epochbench -iters 100      # paper-style 100-iteration averaging
//	epochbench -workers 1      # serial (output is identical at any count)
//	epochbench -cpuprofile cpu.out -memprofile mem.out -trace trace.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/stats"
)

// experiment is one runnable figure: its id (the -fig argument), the
// paper figure it maps to (or the repo extension it is), and a one-line
// description for -list. A deep experiment only runs when named explicitly
// with -fig — it is too expensive for the default everything run.
type experiment struct {
	id    string
	paper string
	desc  string
	deep  bool
	run   func(iters int) fmt.Stringer
}

// tables is a figure made of several tables, rendered in order.
type tables []*stats.Table

func (ts tables) String() string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, "\n")
}

// fig13 runs the LU study at both matrix scales (2048^2 and 4096^2 stand in
// for the paper's 8192^2 and 16384^2; DESIGN.md, scale substitution), each
// over the job sizes up to its communication-bound end.
func fig13(int) fmt.Stringer {
	time2k, comm2k := bench.Fig13LU([]int{64, 128, 256, 512, 1024}, bench.DefaultLUParams(2048))
	time4k, comm4k := bench.Fig13LU([]int{64, 128, 256, 512}, bench.DefaultLUParams(4096))
	return tables{time2k, comm2k, time4k, comm4k}
}

// ablation runs the four design-choice ablations; the transaction-based ones
// use a 32-rank job of 64 epochs per rank.
func ablation(iters int) fmt.Stringer {
	const n, epochs = 32, 64
	return tables{
		bench.AblationTriggeredOps(iters),
		bench.AblationPipelineDepth(n, []int{1, 2, 4, 8, 16, 32, 64}, epochs),
		bench.AblationCredits(n, []int{1, 2, 4, 8, 16, 64}, epochs),
		bench.AblationCallOverhead(n, []int64{0, 200, 400, 800, 1600}, epochs),
	}
}

var experiments = []experiment{
	{id: "2", paper: "paper Fig 2", desc: "Late Post: GATS latency when one target posts 1000us late",
		run: func(n int) fmt.Stringer { return bench.Fig2LatePost(n) }},
	{id: "3", paper: "paper Fig 3", desc: "Late Complete: delay propagation to Wait vs message size",
		run: func(n int) fmt.Stringer { return bench.Fig3LateComplete(n, bench.SweepSizes) }},
	{id: "4", paper: "paper Fig 4", desc: "Early Fence: fence latency when one rank arrives early",
		run: func(n int) fmt.Stringer { return bench.Fig4EarlyFence(n) }},
	{id: "5", paper: "paper Fig 5", desc: "Wait at Fence: late-rank delay propagation vs message size",
		run: func(n int) fmt.Stringer { return bench.Fig5WaitAtFence(n, bench.SweepSizes) }},
	{id: "6", paper: "paper Fig 6", desc: "Late Unlock: lock-epoch latency behind a slow holder",
		run: func(n int) fmt.Stringer { return bench.Fig6LateUnlock(n) }},
	{id: "7", paper: "paper Fig 7", desc: "A_A_A_R optimization, GATS: activation batching",
		run: func(n int) fmt.Stringer { return bench.Fig7AAARGats(n) }},
	{id: "8", paper: "paper Fig 8", desc: "A_A_A_R optimization, lock epochs",
		run: func(n int) fmt.Stringer { return bench.Fig8AAARLock(n) }},
	{id: "9", paper: "paper Fig 9", desc: "AAER: access epoch progressing inside an open exposure epoch",
		run: func(n int) fmt.Stringer { return bench.Fig9AAER(n) }},
	{id: "10", paper: "paper Fig 10", desc: "EAER: exposure epochs back to back",
		run: func(n int) fmt.Stringer { return bench.Fig10EAER(n) }},
	{id: "11", paper: "paper Fig 11", desc: "EAAR: exposure epoch progressing inside an access epoch",
		run: func(n int) fmt.Stringer { return bench.Fig11EAAR(n) }},
	{id: "12", paper: "paper Fig 12", desc: "Transactions: massive unstructured atomic updates at 64-512 ranks, four series",
		run: func(int) fmt.Stringer {
			return bench.Fig12Transactions([]int{64, 128, 256, 512}, bench.DefaultTxnParams())
		}},
	{id: "13", paper: "paper Fig 13", desc: "LU decomposition: overall time and communication share, both matrix sizes", deep: true, run: fig13},
	{id: "14", paper: "repo extension", desc: "Fault sweep: epoch latency vs fabric drop rate under the ARQ",
		run: func(n int) fmt.Stringer { return bench.FigFaultSweep(n) }},
	{id: "kv", paper: "repo extension", desc: "Chaos serving: replicated KV store across a scheduled server death, throughput + p99/p999 vs time, all modes",
		run: func(n int) fmt.Stringer { return bench.FigKV(n) }},
	{id: "modes", paper: "repo extension", desc: "Three-way mode comparison: Late Unlock under vanilla, new (blocking/nonblocking) and flush windows",
		run: func(n int) fmt.Stringer { return bench.FigModes(n) }},
	{id: "signal", paper: "repo extension", desc: "Counter-signal transport: epoch open/close latency vs GATS across message sizes and 1/2/4 NIC rails",
		run: func(n int) fmt.Stringer { return bench.FigSignal(n) }},
	{id: "scale", paper: "repo extension", desc: "Scaling: GATS epoch at 64-512 ranks on a fixed-core fat-tree, congestion-attributed",
		run: func(n int) fmt.Stringer { return bench.FigScale(n) }},
	{id: "scale1k", paper: "repo extension", desc: "Scaling, deep point: the 1024-rank cell (run with -shards to make it cheap)", deep: true,
		run: func(n int) fmt.Stringer { return bench.FigScaleRanks([]int{1024}, n) }},
	{id: "scale4k", paper: "repo extension", desc: "Scaling, deep point: the 4096-rank cell (task-mode ranks, no goroutine stacks)", deep: true,
		run: func(n int) fmt.Stringer { return bench.FigScaleRanks([]int{4096}, n) }},
	{id: "scale16k", paper: "repo extension", desc: "Scaling, deep point: the 16384-rank cell (task-mode ranks; the CI smoke point)", deep: true,
		run: func(n int) fmt.Stringer { return bench.FigScaleRanks([]int{16384}, n) }},
	{id: "scale64k", paper: "repo extension", desc: "Scaling, deep point: the 65536-rank cell in one process (use -shards; takes minutes)", deep: true,
		run: func(n int) fmt.Stringer { return bench.FigScaleRanks([]int{65536}, n) }},
	{id: "parity", paper: "paper VIII-A", desc: "Epoch latency parity: one 1 MB put per epoch kind and series",
		run: func(n int) fmt.Stringer { return bench.LatencyParity(n, 1<<20) }},
	{id: "overlap", paper: "paper VIII-A", desc: "Communication/computation overlap per epoch kind and series",
		run: func(n int) fmt.Stringer { return bench.OverlapTable(n) }},
	{id: "ablation", paper: "repo extension", desc: "Design-choice ablations: triggered ops, pipeline depth, credits, call overhead", run: ablation},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("epochbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to run (see -list); empty = all but the deep ones")
	iters := fs.Int("iters", 10, "iterations to average per measurement")
	list := fs.Bool("list", false, "list available figure ids and exit")
	jsonOut := fs.String("json", "", "also write the executed figures as JSON keyed by id to `file` (CI artifacts)")
	pf := bench.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments {
			fmt.Fprintf(stdout, "%-8s %-14s %s\n", e.id, e.paper, e.desc)
		}
		return 0
	}

	var selected []experiment
	for _, e := range experiments {
		if *fig == e.id || *fig == "" && !e.deep {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		ids := make([]string, len(experiments))
		for i, e := range experiments {
			ids[i] = e.id
		}
		fmt.Fprintf(stderr, "epochbench: unknown figure %q (valid: %s; see -list)\n", *fig, strings.Join(ids, ", "))
		return 2
	}

	stop := pf.Start()
	defer stop()

	figures := map[string]fmt.Stringer{}
	for _, e := range selected {
		v := e.run(*iters)
		figures[e.id] = v
		fmt.Fprintln(stdout, v)
	}
	if *jsonOut != "" {
		enc, err := json.MarshalIndent(figures, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "epochbench: encode -json: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*jsonOut, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "epochbench: write -json: %v\n", err)
			return 2
		}
	}
	return 0
}
