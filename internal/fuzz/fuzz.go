package fuzz

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/topo"
)

// Failure describes one failing (seed, mode) pair with every violated
// invariant. Seed alone reproduces it.
type Failure struct {
	Seed     uint64
	Mode     core.Mode
	Lossy    bool      // failed over the fault-injecting fabric
	Topo     topo.Kind // interconnect the run was routed over (Crossbar: default)
	KV       bool      // failed in the chaos KV-store arm (see kv.go)
	Signal   bool      // failed on the counter-signal epoch transport
	Problems []string
}

// String renders the failure with its reproduction recipe. The recipe names
// the arm that failed: -mode decides which generator runs (flush programs
// come from GenerateFlush, not Generate) and under which modes, so a recipe
// without it would replay a different program.
func (f Failure) String() string {
	arm := f.Mode.String()
	switch {
	case f.KV:
		arm = "kv"
	case f.Signal:
		arm = "signal" // both modes on the signal transport: -mode takes one value
	}
	recipe := fmt.Sprintf("-seed %d -n 1 -mode %s", f.Seed, arm)
	if f.Lossy {
		recipe += " -lossy"
	}
	if f.Topo != topo.Crossbar {
		recipe += fmt.Sprintf(" -topo %s", f.Topo)
	}
	return fmt.Sprintf("seed=%d mode=%s:\n  %s\n  reproduce: go run ./cmd/fuzz %s",
		f.Seed, f.Mode, strings.Join(f.Problems, "\n  "), recipe)
}

// Options configures a fuzzing campaign.
type Options struct {
	N     int         // number of programs (consecutive seeds)
	Seed  uint64      // first seed
	Modes []core.Mode // modes to run each program under; nil = both
	// Workers is the number of seeds checked concurrently; 0 uses the
	// process-wide default (par.Workers). Seeds are independent
	// simulations, so throughput scales near-linearly with cores.
	Workers int
	// Report, when non-nil, is called once per seed, in seed order, with
	// that seed's failures (possibly none). Seed-order delivery makes the
	// campaign transcript identical at any worker count.
	Report func(seed uint64, fs []Failure)
	// Progress, when non-nil, is called after each program, in seed order,
	// with running totals (programs done, failures so far).
	Progress func(done, failures int)
	// Lossy executes every seed over a fault-injecting fabric with the
	// recoverable profile LossyProfile derives: drops, duplicates,
	// corruption, jitter and link flaps, all repaired by the go-back-N
	// layer — so the very same invariants must hold as on a pristine
	// network.
	Lossy bool
	// Topo routes every seed over a modeled interconnect of this kind with
	// the seed-varied shape TopoSpec derives (link arbitration, credit flow
	// control, congestion). Crossbar — the zero value — is the untouched
	// default fabric. Composes with Lossy.
	Topo topo.Kind
	// Shards executes every run on a sharded kernel with this many shards
	// (<= 1: serial). Every failure, transcript line and invariant outcome
	// is bit-identical to serial — sharding changes only wall-clock.
	Shards int
	// Signal creates every window on the counter-signal epoch transport
	// (core.TransportSignal) with the seed-derived replica base SignalBase
	// returns — most seeds start the counters a few steps below the uint64
	// wrap, so grant/done streams cross the boundary mid-program and the
	// serial-number arithmetic is exercised for real. Composes with Lossy,
	// Topo and Shards; the invariant battery is unchanged plus the signal
	// conservation check (see Verify).
	Signal bool
}

// BothModes is the default mode set.
var BothModes = []core.Mode{core.ModeNew, core.ModeVanilla}

// CheckSeed generates the program for one seed, executes it under mode and
// verifies all invariants. nil means the run is clean.
func CheckSeed(seed uint64, mode core.Mode) *Failure {
	return CheckSeedFaults(seed, mode, false)
}

// CheckSeedFaults is CheckSeed with an optional lossy fabric (see
// Options.Lossy). The fault schedule is a pure function of the seed, so a
// lossy failure reproduces exactly like a pristine one.
func CheckSeedFaults(seed uint64, mode core.Mode, lossy bool) *Failure {
	return CheckSeedTopo(seed, mode, lossy, topo.Crossbar)
}

// CheckSeedTopo is CheckSeedFaults over a modeled interconnect (see
// Options.Topo). Routing, arbitration and the seed-derived shape are all
// pure functions of (kind, seed), so topology failures replay exactly too.
func CheckSeedTopo(seed uint64, mode core.Mode, lossy bool, kind topo.Kind) *Failure {
	return checkSeed(seed, mode, lossy, kind, 0, false)
}

// CheckSeedSignal is the full checker on the counter-signal epoch transport
// (see Options.Signal): the same program, invariants and fabric options, with
// every window created as core.TransportSignal at the seed-derived replica
// base.
func CheckSeedSignal(seed uint64, mode core.Mode, lossy bool, kind topo.Kind, shards int) *Failure {
	return checkSeed(seed, mode, lossy, kind, shards, true)
}

func checkSeed(seed uint64, mode core.Mode, lossy bool, kind topo.Kind, shards int, signal bool) *Failure {
	p := Generate(seed)
	if mode == core.ModeFlush {
		p = GenerateFlush(seed) // epochless programs: lock/lock_all/flush only
	}
	o := ExecOptions{Topo: kind, Shards: shards, Signal: signal}
	if lossy {
		prof := LossyProfile(seed, p.NRanks)
		o.Faults = &prof
	}
	res := ExecuteWith(p, mode, o)
	if problems := Verify(p, mode, res); len(problems) > 0 {
		return &Failure{Seed: seed, Mode: mode, Lossy: lossy, Topo: kind, Signal: signal, Problems: problems}
	}
	return nil
}

// Campaign runs N consecutive seeds under every requested mode and collects
// all failures. Seeds are fanned across Workers goroutines; Report and
// Progress still fire strictly in seed order, so the campaign's output is
// byte-for-byte identical to a serial run.
func Campaign(o Options) []Failure {
	modes := o.Modes
	if modes == nil {
		modes = BothModes
	}
	return runCampaign(o, func(i int) []Failure {
		seed := o.Seed + uint64(i)
		var fs []Failure
		for _, mode := range modes {
			if f := checkSeed(seed, mode, o.Lossy, o.Topo, o.Shards, o.Signal); f != nil {
				fs = append(fs, *f)
			}
		}
		return fs
	})
}

// runCampaign fans check(i) for i in [0, N) across Workers goroutines
// (par.Stream) and collects in index order: Report and Progress fire
// strictly in seed order, so the transcript is byte-for-byte identical at
// any worker count.
func runCampaign(o Options, check func(i int) []Failure) []Failure {
	workers := o.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	var failures []Failure
	par.Stream(workers, o.N, check, func(i int, fs []Failure) {
		failures = append(failures, fs...)
		if o.Report != nil {
			o.Report(o.Seed+uint64(i), fs)
		}
		if o.Progress != nil {
			o.Progress(i+1, len(failures))
		}
	})
	return failures
}
