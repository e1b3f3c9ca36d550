package fuzz

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The fuzzer-level shard guarantee: a program's entire observable history —
// memory, statistics, trace stream, even the number of kernel events — is
// bit-identical at every shard count, including serial, on the crossbar and
// on every modeled topology (the engine's congestion counters included).
func TestShardedRunsMatchSerial(t *testing.T) {
	for _, kind := range []topo.Kind{topo.Crossbar, topo.Ring, topo.Torus, topo.FatTree} {
		for _, seed := range []uint64{1, 2, 7, 19, 42} {
			p := Generate(seed)
			for _, mode := range BothModes {
				serial := fingerprint(ExecuteWith(p, mode, Arm{Topo: kind}))
				for _, shards := range []int{2, 4, 8} {
					got := fingerprint(ExecuteWith(p, mode, Arm{Topo: kind, Shards: shards}))
					if got != serial {
						t.Fatalf("%v seed %d mode %v: observable history differs between serial and %d shards\n--- serial ---\n%.2000s\n--- sharded ---\n%.2000s",
							kind, seed, mode, shards, serial, got)
					}
				}
			}
		}
	}
}

// Link flaps and per-packet jitter without message faults (no ARQ: the
// departure floor keeps FIFO) run genuinely sharded — the adversary hashes
// packets in their owning rank's shard context — so the whole observable
// history must stay bit-identical at any shard count even while links flap
// mid-program. Deaths are excluded here: an arbitrary generated epoch
// program does not survive a dead collective peer; dead-rank shard parity is
// pinned by the KV harness instead (CheckKVSeed, kvstore's
// TestKVSerialShardedParity).
func TestScheduledFaultShardsMatchSerial(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		p := Generate(seed)
		fs := fabric.FaultProfile{
			Seed: seed,
			Flaps: []fabric.LinkFlap{
				{Src: 0, Dst: p.NRanks - 1, From: 30 * sim.Microsecond, For: 40 * sim.Microsecond},
				{Src: p.NRanks - 1, Dst: 0, From: 90 * sim.Microsecond, For: 25 * sim.Microsecond},
			},
			Jitter: 700 * sim.Nanosecond,
		}
		for _, mode := range BothModes {
			serial := fingerprint(execute(p, mode, Arm{}, &fs, true))
			for _, shards := range []int{2, 4, 8} {
				got := fingerprint(execute(p, mode, Arm{Shards: shards}, &fs, true))
				if got != serial {
					t.Fatalf("seed %d mode %v: scheduled-fault history differs between serial and %d shards\n--- serial ---\n%.2000s\n--- sharded ---\n%.2000s",
						seed, mode, shards, serial, got)
				}
			}
		}
	}
}

// The house invariant extended to -lossy: with drops, duplicates,
// corruption, reordering jitter and flap holds all repaired by the go-back-N
// layer, a program's entire observable history is still bit-identical at
// every shard count — each stream half, timer and counter lives with one
// rank, and every copy and ACK crosses by AtCross — over the crossbar and
// over the torus (CI's -lossy -topo arm).
func TestLossyShardsMatchSerial(t *testing.T) {
	for _, kind := range []topo.Kind{topo.Crossbar, topo.Torus} {
		for _, seed := range []uint64{1, 2, 7, 19, 42} {
			p := Generate(seed)
			for _, mode := range BothModes {
				serial := fingerprint(ExecuteWith(p, mode, Arm{Lossy: true, Topo: kind}))
				for _, shards := range []int{2, 4, 8} {
					got := fingerprint(ExecuteWith(p, mode, Arm{Lossy: true, Topo: kind, Shards: shards}))
					if got != serial {
						t.Fatalf("%v seed %d mode %v: lossy history differs between serial and %d shards\n--- serial ---\n%.2000s\n--- sharded ---\n%.2000s",
							kind, seed, mode, shards, serial, got)
					}
				}
			}
		}
	}
}

// A sharded campaign produces the same transcript as a serial one — the
// invariant battery, the failure set and the report order all survive the
// kernel partitioning.
func TestShardedCampaignMatchesSerial(t *testing.T) {
	run := func(shards int) string {
		out := ""
		fails := Campaign(Options{
			N:     10,
			Seed:  1,
			Modes: []core.Mode{core.ModeNew},
			Arm:   Arm{Shards: shards},
			Report: func(seed uint64, fs []Failure) {
				out += fmt.Sprintf("seed %d: %d failures\n", seed, len(fs))
			},
		})
		return fmt.Sprintf("%sfailures=%d", out, len(fails))
	}
	serial := run(0)
	if sharded := run(4); sharded != serial {
		t.Fatalf("campaign transcript differs between serial and 4 shards:\n--- serial ---\n%s\n--- sharded ---\n%s", serial, sharded)
	}
}
