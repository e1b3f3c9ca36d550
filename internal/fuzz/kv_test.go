package fuzz

import "testing"

// A slice of the chaos KV arm runs in-tree (and under -race in CI): every
// seed must hold the sequential oracle, replay bit-identically, and match
// its own sharded execution. The full 20-seed smoke runs as a CI stage via
// cmd/fuzz -mode kv.
func TestKVCampaignSmoke(t *testing.T) {
	fails := Campaign(Options{N: 5, Seed: 1, Arm: Arm{KV: true, Shards: 2}})
	for _, f := range fails {
		t.Errorf("%s", f)
	}
}

// The scenario derivation itself is deterministic and in-range.
func TestKVOptionsDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := KVOptions(seed), KVOptions(seed)
		if DescribeKV(seed) == "" || a.Servers != b.Servers || a.Mode != b.Mode {
			t.Fatalf("seed %d: KVOptions not deterministic", seed)
		}
		if a.Servers < 2 || a.Clients < 1 {
			t.Fatalf("seed %d: degenerate topology %d servers, %d clients", seed, a.Servers, a.Clients)
		}
		for _, d := range a.Schedule.Deaths {
			if d.Rank < 0 || d.Rank >= a.Servers {
				t.Fatalf("seed %d: death victim %d outside server set", seed, d.Rank)
			}
		}
	}
}
