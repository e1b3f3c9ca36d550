// Command fuzz runs the deterministic epoch-conversation fuzzer: random
// multi-rank RMA programs generated from consecutive seeds, each executed
// under the paper's stack and the vanilla (MVAPICH-style) model, with the
// full invariant battery checked after every run. A failing seed is printed
// with a reproduction command; the process exits nonzero if any program
// fails.
//
// Seeds are independent simulations, so the campaign fans them across
// -workers goroutines (default GOMAXPROCS) for near-linear throughput;
// results are still reported in seed order, so the transcript — and every
// failure — is identical at any worker count.
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
//
// With -mode flush, programs come from fuzz.GenerateFlush — epochless
// lock/lock_all/flush-burst conversations exercising core.ModeFlush and its
// foMPI-style scalable lock protocol, with a flush-specific end-state check
// on top of the usual battery.
//
// With -mode signal, the same epoch programs run under both models but every
// window rides the counter-signal epoch transport (core.TransportSignal):
// grants and dones travel as one-sided 16-byte counter-replica writes with a
// seed-derived starting base, most seeds placed a few steps below the uint64
// wrap so the serial-number arithmetic is exercised mid-program. The full
// battery applies unchanged, plus a conservation check that every replica
// write sent was merged or discarded as stale. Composes with -lossy, -topo
// and -shards.
//
// With -mode kv, seeds derive chaos scenarios for the replicated KV store
// (internal/kvstore) instead of epoch programs: scheduled server deaths,
// link flaps and jitter against seeded Zipfian serving traffic. Each seed
// checks the sequential oracle (zero acknowledged-write loss on surviving
// copies), bit-identical replay of every retry/failover decision, and
// serial/sharded kernel parity:
//
//	go run ./cmd/fuzz -mode kv -n 20 -seed 1
//
// With -lossy every seed runs over a fault-injecting fabric (drop rate
// around 1e-3 plus duplicates, corruption, jitter and link flaps — see
// fuzz.LossyProfile). With -topo every seed routes its internode packets
// over a modeled interconnect (ring, torus or fattree) with a seed-varied
// shape — small switch radixes and tight link credits, where arbitration
// and bubble flow control actually bite (see fuzz.TopoSpec); the two
// compose. Either way the schedule is a pure function of the seed and the
// flags, so a failure replays exactly like a pristine one.
//
// With -shards every seed — lossy and -topo ones included — executes on a
// sharded event kernel; the transcript is bit-identical to a serial campaign.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/topo"
)

// flags are the campaign's own flags: everything the reproduction recipe of
// a fuzz.Failure may name.
type flags struct {
	n       int
	seed    uint64
	mode    string
	lossy   bool
	topo    string
	verbose bool
}

func registerFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.IntVar(&f.n, "n", 100, "number of programs (consecutive seeds)")
	fs.Uint64Var(&f.seed, "seed", 1, "first seed")
	fs.StringVar(&f.mode, "mode", "both", "modes to run: both, new, vanilla, flush, signal, kv or all")
	fs.BoolVar(&f.lossy, "lossy", false, "inject seeded fabric faults (recoverable schedule) under every run")
	fs.StringVar(&f.topo, "topo", "", "route every run over a modeled interconnect: ring, torus or fattree (default: crossbar)")
	fs.BoolVar(&f.verbose, "v", false, "describe each program as it runs")
	return f
}

// options resolves the parsed flags to the campaign they select; kv means
// the chaos KV-store arm, which reads only N and Seed.
func (f *flags) options() (o fuzz.Options, kv bool, err error) {
	o = fuzz.Options{N: f.n, Seed: f.seed, Lossy: f.lossy}
	if o.Topo, err = topo.ParseKind(f.topo); err != nil {
		return o, false, err
	}
	switch f.mode {
	case "kv":
		kv = true
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
		o.Signal = true
	case "all":
		o.Modes = append(append([]core.Mode(nil), fuzz.BothModes...), core.ModeFlush)
	default:
		err = fmt.Errorf("unknown -mode %q (want both, new, vanilla, flush, signal, kv or all)", f.mode)
	}
	return o, kv, err
}

func main() {
	f := registerFlags(flag.CommandLine)
	pf := bench.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stop := pf.Start()

	opt, kv, err := f.options()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuzz: %v\n", err)
		stop()
		os.Exit(2)
	}
	opt.Shards = bench.Shards()
	if kv {
		runKV(opt, f.verbose, stop)
		return
	}

	opt.Report = func(s uint64, fs []fuzz.Failure) {
		if f.verbose {
			p := fuzz.Generate(s)
			if len(opt.Modes) == 1 && opt.Modes[0] == core.ModeFlush {
				p = fuzz.GenerateFlush(s)
			}
			fmt.Printf("seed %d: %d ranks (%d per node), %d windows, %d rounds, %d ops\n",
				s, p.NRanks, p.ProcsPerNode, len(p.Windows), len(p.Rounds), p.OpCount())
		}
		for _, failure := range fs {
			fmt.Printf("FAIL %s\n", failure)
		}
	}
	opt.Progress = func(done, failed int) {
		if !f.verbose && done%50 == 0 {
			fmt.Printf("%d/%d programs checked, %d failures\n", done, opt.N, failed)
		}
	}
	failures := fuzz.Campaign(opt)

	if len(failures) > 0 {
		fmt.Printf("FAIL: %d of %d programs violated invariants\n", len(failures), opt.N)
		stop()
		os.Exit(1)
	}
	fabricKind := "pristine fabric"
	if opt.Lossy {
		fabricKind = "lossy fabric"
	}
	if opt.Topo != topo.Crossbar {
		fabricKind += fmt.Sprintf(" (%s interconnect)", opt.Topo)
	}
	if opt.Signal {
		fabricKind += ", counter-signal transport"
	}
	fmt.Printf("ok: %d programs x %d mode(s) over %s, all invariants held\n", opt.N, len(opt.Modes), fabricKind)
	stop()
}

// runKV is the chaos KV-store arm: every seed derives a replicated
// serving scenario with a scheduled fault adversary (fuzz.KVOptions), runs
// it, and checks the sequential oracle (zero acknowledged-write loss), that
// a replay reproduces every retry/failover decision bit for bit, and that a
// sharded kernel matches the serial run.
func runKV(opt fuzz.Options, verbose bool, stop func()) {
	opt.Report = func(s uint64, fs []fuzz.Failure) {
		if verbose {
			fmt.Printf("seed %d: %s\n", s, fuzz.DescribeKV(s))
		}
		for _, f := range fs {
			fmt.Printf("FAIL %s\n", f)
		}
	}
	opt.Progress = func(done, failed int) {
		if !verbose && done%10 == 0 {
			fmt.Printf("%d/%d scenarios checked, %d failures\n", done, opt.N, failed)
		}
	}
	failures := fuzz.KVCampaign(opt)
	if len(failures) > 0 {
		fmt.Printf("FAIL: %d of %d KV scenarios violated invariants\n", len(failures), opt.N)
		stop()
		os.Exit(1)
	}
	fmt.Printf("ok: %d KV chaos scenarios, zero acked-write loss, deterministic failover, serial/sharded parity\n", opt.N)
	stop()
}
