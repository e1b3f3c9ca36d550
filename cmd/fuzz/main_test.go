package main

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/topo"
)

// The recipe a Failure prints must select the arm that failed: parsed by
// this command's own flags, it has to come back as the same seed, generator
// (flush programs exist only under -mode flush), mode, transport and fabric.
func TestRecipeSelectsFailingArm(t *testing.T) {
	for _, f := range []fuzz.Failure{
		{Seed: 7, Mode: core.ModeNew},
		{Seed: 8, Mode: core.ModeVanilla},
		{Seed: 9, Mode: core.ModeFlush},
		{Seed: 10, Mode: core.ModeFlush, Lossy: true},
		{Seed: 11, Mode: core.ModeVanilla, Signal: true},
		{Seed: 12, Mode: core.ModeNew, Signal: true, Lossy: true, Topo: topo.Torus},
		{Seed: 13, Mode: core.ModeNew, Lossy: true},
		{Seed: 14, Mode: core.ModeVanilla, Topo: topo.FatTree},
		{Seed: 15, Mode: core.ModeNew, KV: true},
	} {
		const marker = "reproduce: go run ./cmd/fuzz "
		s := f.String()
		i := strings.Index(s, marker)
		if i < 0 {
			t.Fatalf("no recipe in %q", s)
		}
		recipe := s[i+len(marker):]
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		parsed := registerFlags(fs)
		if err := fs.Parse(strings.Fields(recipe)); err != nil {
			t.Fatalf("recipe %q: %v", recipe, err)
		}
		o, kv, err := parsed.options()
		if err != nil {
			t.Fatalf("recipe %q: %v", recipe, err)
		}
		if o.Seed != f.Seed || o.N != 1 || kv != f.KV {
			t.Errorf("recipe %q runs seed %d x %d (kv %t), want the one seed %d (kv %t)", recipe, o.Seed, o.N, kv, f.Seed, f.KV)
		}
		if kv {
			continue // the scenario's mode and adversary come from the seed
		}
		if o.Lossy != f.Lossy || o.Topo != f.Topo || o.Signal != f.Signal {
			t.Errorf("recipe %q: lossy %t topo %s signal %t, failure was %+v", recipe, o.Lossy, o.Topo, o.Signal, f)
		}
		runs := false
		for _, m := range o.Modes {
			runs = runs || m == f.Mode
		}
		// -mode takes one value, so a signal recipe runs both modes; every
		// other recipe runs exactly the failing one.
		if !runs || (!f.Signal && len(o.Modes) != 1) {
			t.Errorf("recipe %q runs modes %v, failure was under %s", recipe, o.Modes, f.Mode)
		}
	}
}
