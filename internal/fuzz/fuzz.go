package fuzz

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/topo"
)

// Arm is what a seed runs over: a program's fabric, kernel and epoch
// transport, or the chaos KV-store scenario instead of a program. The zero
// value is the pristine crossbar on the serial kernel with GATS control
// packets. What an arm varies is a pure function of the seed, so a failure
// replays exactly from its seed and arm.
type Arm struct {
	// Lossy injects the recoverable faults LossyProfile derives (drops,
	// duplicates, corruption, jitter, link flaps); the go-back-N layer
	// repairs them all, so every invariant must hold as on a pristine fabric.
	Lossy bool
	// Topo routes internode packets over a modeled interconnect of the
	// seed-varied shape TopoSpec derives; Crossbar is the default fabric.
	Topo topo.Kind
	// Shards runs a sharded kernel (<= 1: serial). Every observable, and so
	// every failure and transcript line, is bit-identical to serial.
	Shards int
	// Signal creates every window on the counter-signal epoch transport at
	// the replica base SignalBase derives, most seeds a few steps below the
	// uint64 wrap; Verify adds the signal conservation check.
	Signal bool
	// KV checks the seed's chaos KV-store scenario (kv.go) instead of a
	// program. Its mode and adversary come from the seed: only Shards
	// applies.
	KV bool
}

// String describes a program arm's fabric and transport.
func (a Arm) String() string {
	s := "pristine fabric"
	if a.Lossy {
		s = "lossy fabric"
	}
	if a.Topo != topo.Crossbar {
		s += fmt.Sprintf(" (%s interconnect)", a.Topo)
	}
	if a.Signal {
		s += ", counter-signal transport"
	}
	return s
}

// Failure describes one failing (seed, mode) pair with every violated
// invariant. Seed and Arm reproduce it.
type Failure struct {
	Seed     uint64
	Mode     core.Mode
	Arm      Arm
	Problems []string
}

// String renders the failure with its reproduction recipe: the cmd/fuzz
// flags that select its seed, mode (and so its generator, GenerateFor) and
// arm, -shards included, since a divergence only a sharded kernel shows
// replays clean on the serial one.
func (f Failure) String() string {
	mode := f.Mode.String()
	switch {
	case f.Arm.KV:
		mode = "kv"
	case f.Arm.Signal:
		mode = "signal" // both modes on the signal transport: -mode takes one value
	}
	recipe := fmt.Sprintf("-seed %d -n 1 -mode %s", f.Seed, mode)
	if f.Arm.Lossy {
		recipe += " -lossy"
	}
	if f.Arm.Topo != topo.Crossbar {
		recipe += fmt.Sprintf(" -topo %s", f.Arm.Topo)
	}
	if f.Arm.Shards > 1 {
		recipe += fmt.Sprintf(" -shards %d", f.Arm.Shards)
	}
	return fmt.Sprintf("seed=%d mode=%s:\n  %s\n  reproduce: go run ./cmd/fuzz %s",
		f.Seed, f.Mode, strings.Join(f.Problems, "\n  "), recipe)
}

// Options configures a fuzzing campaign.
type Options struct {
	N     int         // number of programs (consecutive seeds)
	Seed  uint64      // first seed
	Modes []core.Mode // modes to run each program under; nil = both (KV: unused)
	Arm   Arm         // what every seed runs over
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
}

// BothModes is the default mode set.
var BothModes = []core.Mode{core.ModeNew, core.ModeVanilla}

// Check generates seed's program for mode (GenerateFor), executes it over
// arm a and verifies every invariant; under a.KV it checks the seed's chaos
// KV-store scenario instead (kv.go). nil means the run is clean.
func Check(seed uint64, mode core.Mode, a Arm) *Failure {
	if a.KV {
		return checkKV(seed, a)
	}
	p := GenerateFor(seed, mode)
	if problems := Verify(p, mode, ExecuteWith(p, mode, a)); len(problems) > 0 {
		return &Failure{Seed: seed, Mode: mode, Arm: a, Problems: problems}
	}
	return nil
}

// CheckSeed and the four below are Check over the arm their arguments
// spell, kept for the benchmark harness (benchmarks/workloads.go).
func CheckSeed(seed uint64, mode core.Mode) *Failure { return Check(seed, mode, Arm{}) }

// CheckSeedFaults is Check with an optional lossy fabric.
func CheckSeedFaults(seed uint64, mode core.Mode, lossy bool) *Failure {
	return Check(seed, mode, Arm{Lossy: lossy})
}

// CheckSeedTopo is Check over a lossy or pristine interconnect of kind.
func CheckSeedTopo(seed uint64, mode core.Mode, lossy bool, kind topo.Kind) *Failure {
	return Check(seed, mode, Arm{Lossy: lossy, Topo: kind})
}

// CheckSeedSignal is Check on the counter-signal epoch transport.
func CheckSeedSignal(seed uint64, mode core.Mode, lossy bool, kind topo.Kind, shards int) *Failure {
	return Check(seed, mode, Arm{Lossy: lossy, Topo: kind, Shards: shards, Signal: true})
}

// CheckKVSeed is Check on the chaos KV-store arm.
func CheckKVSeed(seed uint64, shards int) *Failure {
	return Check(seed, core.ModeNew, Arm{KV: true, Shards: shards})
}

// Campaign checks N consecutive seeds under every requested mode over o.Arm
// and collects all failures. Seeds are fanned across Workers goroutines
// (par.Stream); Report and Progress still fire strictly in seed order, so
// the campaign's output is byte-for-byte identical to a serial run.
func Campaign(o Options) []Failure {
	workers := o.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	modes := o.Modes
	switch {
	case o.Arm.KV:
		modes = BothModes[:1] // a scenario runs once, under the mode its seed derives
	case modes == nil:
		modes = BothModes
	}
	var failures []Failure
	par.Stream(workers, o.N, func(i int) (fs []Failure) {
		for _, mode := range modes {
			if f := Check(o.Seed+uint64(i), mode, o.Arm); f != nil {
				fs = append(fs, *f)
			}
		}
		return fs
	}, func(i int, fs []Failure) {
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
