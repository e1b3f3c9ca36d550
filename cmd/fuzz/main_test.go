package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/topo"
)

// parse parses args with this command's own flags.
func parse(t *testing.T, args ...string) *flags {
	t.Helper()
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	f := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return f
}

// The recipe a Failure prints must select the arm that failed: parsed by
// this command's own flags, it has to come back as the same seed, generator
// (flush programs exist only under -mode flush), mode and Arm — every field
// of it, the shard count included.
func TestRecipeSelectsFailingArm(t *testing.T) {
	for _, f := range []fuzz.Failure{
		{Seed: 7, Mode: core.ModeNew},
		{Seed: 8, Mode: core.ModeVanilla},
		{Seed: 9, Mode: core.ModeFlush},
		{Seed: 10, Mode: core.ModeFlush, Arm: fuzz.Arm{Lossy: true}},
		{Seed: 11, Mode: core.ModeVanilla, Arm: fuzz.Arm{Signal: true}},
		{Seed: 12, Mode: core.ModeNew, Arm: fuzz.Arm{Signal: true, Lossy: true, Topo: topo.Torus}},
		{Seed: 13, Mode: core.ModeNew, Arm: fuzz.Arm{Lossy: true}},
		{Seed: 14, Mode: core.ModeVanilla, Arm: fuzz.Arm{Topo: topo.FatTree}},
		{Seed: 15, Mode: core.ModeNew, Arm: fuzz.Arm{KV: true}},
		{Seed: 16, Mode: core.ModeVanilla, Arm: fuzz.Arm{Shards: 4}},
		{Seed: 17, Mode: core.ModeFlush, Arm: fuzz.Arm{Lossy: true, Shards: 2}},
		{Seed: 18, Mode: core.ModeNew, Arm: fuzz.Arm{Signal: true, Topo: topo.Ring, Shards: 8}},
		{Seed: 19, Mode: core.ModeVanilla, Arm: fuzz.Arm{KV: true, Shards: 2}},
	} {
		const marker = "reproduce: go run ./cmd/fuzz "
		s := f.String()
		i := strings.Index(s, marker)
		if i < 0 {
			t.Fatalf("no recipe in %q", s)
		}
		recipe := s[i+len(marker):]
		o, err := parse(t, strings.Fields(recipe)...).options()
		if err != nil {
			t.Fatalf("recipe %q: %v", recipe, err)
		}
		if o.Seed != f.Seed || o.N != 1 || o.Arm != f.Arm {
			t.Errorf("recipe %q runs seed %d x %d over %+v, want the one seed %d over %+v", recipe, o.Seed, o.N, o.Arm, f.Seed, f.Arm)
		}
		if f.Arm.KV {
			continue // the scenario's mode comes from the seed
		}
		// -mode takes one value, so a signal recipe runs both modes; every
		// other recipe runs exactly the failing one.
		if !slices.Contains(o.Modes, f.Mode) || (!f.Arm.Signal && len(o.Modes) != 1) {
			t.Errorf("recipe %q runs modes %v, failure was under %s", recipe, o.Modes, f.Mode)
		}
	}
}

// The summary counts failing seeds, not failures: a seed that fails under
// both modes is one of the N programs.
func TestFailCountsSeeds(t *testing.T) {
	var out strings.Builder
	code := run(parse(t, "-n", "3", "-seed", "5"), &out, func(o fuzz.Options) (all []fuzz.Failure) {
		for s := o.Seed; s < o.Seed+uint64(o.N); s++ {
			var fs []fuzz.Failure
			if s == 6 {
				for _, m := range o.Modes {
					fs = append(fs, fuzz.Failure{Seed: s, Mode: m, Arm: o.Arm, Problems: []string{"planted"}})
				}
			}
			o.Report(s, fs)
			all = append(all, fs...)
		}
		return all
	})
	if got := strings.Count(out.String(), "FAIL seed=6"); code != 1 || got != 2 {
		t.Fatalf("exit %d with %d failure lines for seed 6, want 1 and 2:\n%s", code, got, out.String())
	}
	if !strings.HasSuffix(out.String(), "FAIL: 1 of 3 programs violated invariants\n") {
		t.Fatalf("summary does not count one failing seed of 3:\n%s", out.String())
	}
}

// -mode kv derives its fabric and adversary from the seed, so the flags
// that would select them are refused like an unknown mode (exit 2), while
// -shards, which its parity check uses, is kept.
func TestKVRefusesFabricFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "kv", "-lossy"},
		{"-mode", "kv", "-topo", "torus"},
		{"-mode", "kv", "-lossy", "-topo", "torus"},
		{"-mode", "nope"},
	} {
		if code := run(parse(t, args...), &strings.Builder{}, fuzz.Campaign); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
	o, err := parse(t, "-mode", "kv", "-shards", "2").options()
	if err != nil || o.Arm != (fuzz.Arm{KV: true, Shards: 2}) {
		t.Fatalf("-mode kv -shards 2: %+v, %v", o.Arm, err)
	}
}

// Under -mode all, -v describes the program each mode runs: the flush
// program is GenerateFor's, not Generate's.
func TestVerboseDescribesEveryProgram(t *testing.T) {
	var out strings.Builder
	if code := run(parse(t, "-seed", "3", "-n", "1", "-v", "-mode", "all"), &out, fuzz.Campaign); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	for _, mode := range []core.Mode{core.ModeNew, core.ModeFlush} {
		p := fuzz.GenerateFor(3, mode)
		if want := fmt.Sprintf("%d rounds, %d ops\n", len(p.Rounds), p.OpCount()); !strings.Contains(out.String(), want) {
			t.Errorf("%s program (%q) not described:\n%s", mode, want, out.String())
		}
	}
}
