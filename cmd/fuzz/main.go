// Command fuzz runs the deterministic epoch-conversation fuzzer: random
// multi-rank RMA programs generated from consecutive seeds, each executed
// under the paper's stack and the vanilla (MVAPICH-style) model, with the
// full invariant battery checked after every run. What a seed runs over is
// one fuzz.Arm, parsed from the flags below; a failing seed prints the
// flags that replay it, and the process exits nonzero if any seed fails.
//
// Seeds are independent simulations, so the campaign fans them across
// -workers goroutines (default GOMAXPROCS); results are still reported in
// seed order, so the transcript — and every failure — is identical at any
// worker count.
//
// Usage:
//
//	go run ./cmd/fuzz -n 200 -seed 1
//	go run ./cmd/fuzz -n 2000 -workers 8     # large campaign, 8 cores
//	go run ./cmd/fuzz -seed 1234 -n 1 -v     # replay one seed verbosely
//	go run ./cmd/fuzz -n 200 -lossy          # drops/dups/flaps under the ARQ
//	go run ./cmd/fuzz -n 100 -topo fattree   # route over a congested fat-tree
//	go run ./cmd/fuzz -n 100 -mode flush     # epochless flush-mode programs
//	go run ./cmd/fuzz -n 100 -mode signal    # counter-signal epoch transport
//	go run ./cmd/fuzz -mode kv -n 20         # chaos KV-store scenarios
//
// -mode picks the modes (both, new, vanilla, flush, or all three) and so the
// generator: flush programs (fuzz.GenerateFor) are epochless
// lock/lock_all/flush-burst conversations for core.ModeFlush and its
// foMPI-style scalable lock, with a flush-specific end-state check on top.
// -mode signal runs both modes with every window on the counter-signal epoch
// transport, replica counters based a few steps below the uint64 wrap for
// most seeds (fuzz.SignalBase), plus a conservation check. The fabric arm
// composes with every mode: -lossy injects a recoverable fault schedule
// (fuzz.LossyProfile), -topo routes over a ring, torus or fattree of
// seed-varied shape (fuzz.TopoSpec), -shards runs a sharded kernel whose
// transcript is bit-identical to serial. Every schedule is a pure function
// of the seed and the flags, so a failure replays exactly.
//
// -mode kv checks chaos scenarios for the replicated KV store instead
// (fuzz.KVOptions: server deaths, link flaps and jitter against Zipfian
// traffic): its oracle, bit-identical replay and serial/sharded parity. The
// scenario derives its own mode and adversary, so -lossy and -topo are
// refused there.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/topo"
)

// flags are the campaign's flags: everything the reproduction recipe of a
// fuzz.Failure may name, -shards included.
type flags struct {
	n       int
	seed    uint64
	mode    string
	lossy   bool
	topo    string
	verbose bool
	prof    *bench.Flags // -shards, -workers and the profile flags
}

func registerFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.IntVar(&f.n, "n", 100, "number of programs (consecutive seeds)")
	fs.Uint64Var(&f.seed, "seed", 1, "first seed")
	fs.StringVar(&f.mode, "mode", "both", "modes to run: both, new, vanilla, flush, signal, kv or all")
	fs.BoolVar(&f.lossy, "lossy", false, "inject seeded fabric faults (recoverable schedule) under every run")
	fs.StringVar(&f.topo, "topo", "", "route every run over a modeled interconnect: ring, torus or fattree (default: crossbar)")
	fs.BoolVar(&f.verbose, "v", false, "describe each program as it runs")
	f.prof = bench.RegisterFlags(fs)
	return f
}

// options resolves the parsed flags to the campaign they select.
func (f *flags) options() (o fuzz.Options, err error) {
	o = fuzz.Options{N: f.n, Seed: f.seed, Arm: fuzz.Arm{Lossy: f.lossy, Shards: f.prof.Shards}}
	if o.Arm.Topo, err = topo.ParseKind(f.topo); err != nil {
		return o, err
	}
	switch f.mode {
	case "kv":
		o.Arm.KV = true
		if o.Arm.Lossy || o.Arm.Topo != topo.Crossbar {
			err = errors.New("-mode kv derives its adversary and fabric from the seed: -lossy and -topo do not apply")
		}
	case "both":
		o.Modes = fuzz.BothModes
	case "new":
		o.Modes = []core.Mode{core.ModeNew}
	case "vanilla":
		o.Modes = []core.Mode{core.ModeVanilla}
	case "flush":
		o.Modes = []core.Mode{core.ModeFlush}
	case "signal":
		o.Modes = fuzz.BothModes
		o.Arm.Signal = true
	case "all":
		o.Modes = append(append([]core.Mode(nil), fuzz.BothModes...), core.ModeFlush)
	default:
		err = fmt.Errorf("unknown -mode %q (want both, new, vanilla, flush, signal, kv or all)", f.mode)
	}
	return o, err
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()
	stop := f.prof.Start()
	code := run(f, os.Stdout, fuzz.Campaign)
	stop()
	os.Exit(code)
}

// run runs the campaign the flags select with campaign, writes its
// transcript to w and returns the exit code: 0 clean, 1 when a seed fails,
// 2 for flags that select no campaign.
func run(f *flags, w io.Writer, campaign func(fuzz.Options) []fuzz.Failure) int {
	opt, err := f.options()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuzz: %v\n", err)
		return 2
	}
	unit, every := "programs", 50
	if opt.Arm.KV {
		unit, every = "scenarios", 10
	}
	failed := 0 // seeds, each failing under one mode or several
	opt.Report = func(s uint64, fs []fuzz.Failure) {
		if f.verbose {
			describe(w, s, opt)
		}
		for _, failure := range fs {
			fmt.Fprintf(w, "FAIL %s\n", failure)
		}
		if len(fs) > 0 {
			failed++
		}
	}
	opt.Progress = func(done, failures int) {
		if !f.verbose && done%every == 0 {
			fmt.Fprintf(w, "%d/%d %s checked, %d failures\n", done, opt.N, unit, failures)
		}
	}
	campaign(opt)
	switch {
	case failed > 0 && opt.Arm.KV:
		fmt.Fprintf(w, "FAIL: %d of %d KV scenarios violated invariants\n", failed, opt.N)
		return 1
	case failed > 0:
		fmt.Fprintf(w, "FAIL: %d of %d programs violated invariants\n", failed, opt.N)
		return 1
	case opt.Arm.KV:
		fmt.Fprintf(w, "ok: %d KV chaos scenarios, zero acked-write loss, deterministic failover, serial/sharded parity\n", opt.N)
	default:
		fmt.Fprintf(w, "ok: %d programs x %d mode(s) over %s, all invariants held\n", opt.N, len(opt.Modes), opt.Arm)
	}
	return 0
}

// describe writes what seed runs for -v: its KV scenario, or its program,
// plus one line, named by its mode, for each later mode whose program
// differs (the flush program, under -mode all).
func describe(w io.Writer, seed uint64, o fuzz.Options) {
	if o.Arm.KV {
		fmt.Fprintf(w, "seed %d: %s\n", seed, fuzz.DescribeKV(seed))
		return
	}
	first := ""
	for i, mode := range o.Modes {
		p := fuzz.GenerateFor(seed, mode)
		d := fmt.Sprintf("%d ranks (%d per node), %d windows, %d rounds, %d ops",
			p.NRanks, p.ProcsPerNode, len(p.Windows), len(p.Rounds), p.OpCount())
		if i == 0 {
			first = d
			fmt.Fprintf(w, "seed %d: %s\n", seed, d)
		} else if d != first {
			fmt.Fprintf(w, "seed %d (%s): %s\n", seed, mode, d)
		}
	}
}
