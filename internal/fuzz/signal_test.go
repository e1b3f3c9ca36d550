package fuzz

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// TestSignalBaseSpread pins the seed->base derivation: the campaign must
// sweep both the near-wrap band (where serial-number arithmetic is load-
// bearing) and the plain zero base, deterministically.
func TestSignalBaseSpread(t *testing.T) {
	var zero, nearWrap int
	for seed := uint64(1); seed <= 64; seed++ {
		b := SignalBase(seed)
		if b != SignalBase(seed) {
			t.Fatalf("seed %d: SignalBase is not deterministic", seed)
		}
		switch {
		case b == 0:
			zero++
		case b >= ^uint64(0)-32:
			nearWrap++
		default:
			t.Fatalf("seed %d: base %d is neither zero nor near-wrap", seed, b)
		}
	}
	if zero == 0 || nearWrap == 0 {
		t.Fatalf("base derivation never produced both regimes: zero=%d nearWrap=%d", zero, nearWrap)
	}
}

// TestSignalCampaign is the signal arm's acceptance campaign: epoch programs
// under both models with every window on the counter-signal transport, the
// replica counters seeded across the uint64 wrap. The oracle, the epoch/ω
// battery and the signal conservation check must all hold.
func TestSignalCampaign(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	failures := Campaign(Options{N: n, Seed: 1, Signal: true})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestSignalLossyCampaign gives the signal transport the fault adversary:
// drops, duplicates, corruption, jitter and flaps under the go-back-N
// sublayer. Replica writes are idempotent by construction (stale writes are
// discarded by the serial-number merge), so the battery must hold unchanged.
func TestSignalLossyCampaign(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	failures := Campaign(Options{N: n, Seed: 2000, Lossy: true, Signal: true,
		Modes: []core.Mode{core.ModeNew}})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestSignalTopoCampaign routes signal-transport programs over a congested
// fat-tree: counter writes share links with data under arbitration and
// credit flow control, and must still merge in a conservation-clean way.
func TestSignalTopoCampaign(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 6
	}
	failures := Campaign(Options{N: n, Seed: 100, Topo: topo.FatTree, Signal: true,
		Modes: []core.Mode{core.ModeNew}})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestSignalShardIdentity: a signal-transport run on the sharded kernel is
// bit-identical to serial — memories, stats (including the Signals*
// counters), trace stream and kernel event count.
func TestSignalShardIdentity(t *testing.T) {
	for _, seed := range []uint64{1, 7, 19} {
		p := Generate(seed)
		for _, mode := range BothModes {
			serial := fingerprint(ExecuteWith(p, mode, ExecOptions{Signal: true}))
			for _, shards := range []int{2, 4} {
				got := fingerprint(ExecuteWith(p, mode, ExecOptions{Signal: true, Shards: shards}))
				if got != serial {
					t.Fatalf("seed %d mode %v: signal-transport history differs between serial and %d shards\n--- serial ---\n%.2000s\n--- sharded ---\n%.2000s",
						seed, mode, shards, serial, got)
				}
			}
		}
	}
}

// TestSignalArmActuallySignals guards against the arm silently running on
// the GATS control path: across a handful of seeds, signal-transport runs
// must move replica writes, and near-wrap seeds must show raw counters that
// crossed the uint64 boundary (raw far below the starting base while merges
// were recorded).
func TestSignalArmActuallySignals(t *testing.T) {
	var sent int64
	wrapped := false
	for seed := uint64(1); seed <= 10; seed++ {
		p := Generate(seed)
		res := ExecuteWith(p, core.ModeNew, ExecOptions{Signal: true})
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		base := SignalBase(seed)
		sent += total(res.Counters, "core.signals_sent")
		for r := 0; r < p.NRanks; r++ {
			for _, win := range res.Wins[r] {
				if base == 0 {
					continue
				}
				for peer := 0; peer < p.NRanks; peer++ {
					grant := base + uint64(win.PeerState(peer).G) // as on the signal wire
					if grant != 0 && grant < base && grant < 1<<32 {
						wrapped = true // merged counters landed past the wrap
					}
				}
			}
		}
	}
	if sent == 0 {
		t.Fatal("10 signal-transport seeds sent no replica writes — the arm is inert")
	}
	if !wrapped {
		t.Fatal("no near-wrap seed drove a counter across the uint64 boundary")
	}
}
