package fuzz

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// TestTopoCampaigns routes a modest campaign over each modeled
// interconnect under both modes; every program must satisfy every
// invariant the crossbar campaigns enforce — congestion may reorder the
// global schedule, never per-peer delivery or epoch semantics.
func TestTopoCampaigns(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for _, kind := range []topo.Kind{topo.FatTree, topo.Ring, topo.Torus} {
		failures := Campaign(Options{N: n, Seed: 1, Arm: Arm{Topo: kind}})
		for _, f := range failures {
			t.Errorf("%s", f)
		}
	}
}

// TestTopoLossyCampaign composes both adversaries: seed-derived faults
// injected into packets that then cross a congested fat-tree.
func TestTopoLossyCampaign(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 10
	}
	failures := Campaign(Options{N: n, Seed: 1, Arm: Arm{Lossy: true, Topo: topo.FatTree},
		Modes: []core.Mode{core.ModeNew}})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestTopoReplayDeterminism: a topology execution is a pure function of
// (seed, kind) — byte-identical memory, event counts and congestion
// counters on replay. This is what makes a -topo fuzz failure
// reproducible.
func TestTopoReplayDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		p := Generate(seed)
		a := ExecuteWith(p, core.ModeNew, Arm{Topo: topo.FatTree})
		b := ExecuteWith(p, core.ModeNew, Arm{Topo: topo.FatTree})
		if a.Err != nil || b.Err != nil {
			t.Fatalf("seed %d: topology runs failed: %v / %v", seed, a.Err, b.Err)
		}
		if a.KernelEvents != b.KernelEvents {
			t.Fatalf("seed %d: kernel event counts diverge: %d vs %d", seed, a.KernelEvents, b.KernelEvents)
		}
		if ca, cb := a.Counters.Snapshot(), b.Counters.Snapshot(); ca != cb {
			t.Fatalf("seed %d: counters diverge: %s vs %s", seed, ca, cb)
		}
		if !reflect.DeepEqual(a.Mems, b.Mems) {
			t.Fatalf("seed %d: final memories diverge across identical topology runs", seed)
		}
	}
}

// TestTopoActuallyRoutes guards against the campaign silently running on
// the crossbar (e.g. a spec that never builds an engine): across a handful
// of seeds, at least one multinode program must show packets crossing
// modeled links.
func TestTopoActuallyRoutes(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := Generate(seed)
		res := ExecuteWith(p, core.ModeNew, Arm{Topo: topo.FatTree})
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		if total(res.Counters, "topo.delivered") > 0 {
			return
		}
	}
	t.Fatal("10 fat-tree seeds routed no packets over the topology — spec derivation or wiring is inert")
}

// TestTopoSpecDeterministicAndValid: the seed-derived shapes must replay
// and must build for every node count a generated program can have.
func TestTopoSpecDeterministicAndValid(t *testing.T) {
	for _, kind := range []topo.Kind{topo.FatTree, topo.Ring, topo.Torus} {
		for seed := uint64(1); seed <= 50; seed++ {
			a, b := TopoSpec(kind, seed), TopoSpec(kind, seed)
			if a != b {
				t.Fatalf("%s seed %d: TopoSpec not deterministic", kind, seed)
			}
			for nodes := 1; nodes <= 5; nodes++ {
				spec := a
				spec.LinkBytesPerUs = 3100
				spec.HopLatency = 1000
				if _, err := topo.Build(spec, nodes); err != nil {
					t.Fatalf("%s seed %d nodes %d: %v", kind, seed, nodes, err)
				}
			}
		}
	}
	if s := TopoSpec(topo.Crossbar, 7); s != (topo.Spec{}) {
		t.Fatalf("crossbar TopoSpec = %+v, want zero", s)
	}
}
