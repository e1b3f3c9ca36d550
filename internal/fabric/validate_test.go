package fabric

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestConfigValidation pins the construction-time guard: non-positive
// latency/bandwidth terms, NaN or infinite bandwidths and negative counts
// are refused with contextual errors instead of silently producing nonsense
// schedules.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		frag string // expected error fragment
	}{
		{"zero alpha", func(c *Config) { c.Alpha = 0 }, "Alpha"},
		{"negative alpha", func(c *Config) { c.Alpha = -sim.Microsecond }, "Alpha"},
		{"zero bandwidth", func(c *Config) { c.BytesPerUs = 0 }, "BytesPerUs"},
		{"negative bandwidth", func(c *Config) { c.BytesPerUs = -3100 }, "BytesPerUs"},
		{"zero intra alpha", func(c *Config) { c.AlphaIntra = 0 }, "AlphaIntra"},
		{"zero intra bandwidth", func(c *Config) { c.BytesPerUsIntra = 0 }, "BytesPerUsIntra"},
		{"NaN bandwidth", func(c *Config) { c.BytesPerUs = math.NaN() }, "BytesPerUs"},
		{"infinite bandwidth", func(c *Config) { c.BytesPerUs = math.Inf(1) }, "BytesPerUs"},
		{"NaN intra bandwidth", func(c *Config) { c.BytesPerUsIntra = math.NaN() }, "BytesPerUsIntra"},
		{"infinite intra bandwidth", func(c *Config) { c.BytesPerUsIntra = math.Inf(1) }, "BytesPerUsIntra"},
		{"vanishing bandwidth", func(c *Config) { c.BytesPerUs = 1e-300 }, "BytesPerUs"},
		{"alpha past the clock range", func(c *Config) { c.Alpha = math.MaxInt64 }, "Alpha"},
		{"intra alpha past the clock range", func(c *Config) { c.AlphaIntra = math.MaxInt64 }, "AlphaIntra"},
		{"NaN link bandwidth", func(c *Config) {
			c.Topo.Kind = topo.Ring
			c.Topo.LinkBytesPerUs = math.NaN()
		}, "link bandwidth"},
		{"infinite link bandwidth", func(c *Config) {
			c.Topo.Kind = topo.FatTree
			c.Topo.LinkBytesPerUs = math.Inf(1)
		}, "link bandwidth"},
		{"negative ppn", func(c *Config) { c.ProcsPerNode = -1 }, "ProcsPerNode"},
		{"negative credits", func(c *Config) { c.CreditsPerPeer = -1 }, "CreditsPerPeer"},
		{"negative ack latency", func(c *Config) { c.AckLatency = -1 }, "AckLatency"},
		{"negative fifo capacity", func(c *Config) { c.FifoCapacity = -1 }, "FifoCapacity"},
		{"negative regcache", func(c *Config) { c.RegCacheEntries = -1 }, "RegCacheEntries"},
		{"negative regmiss", func(c *Config) { c.RegMissCost = -1 }, "RegMissCost"},
		{"negative call overhead", func(c *Config) { c.CallOverhead = -1 }, "CallOverhead"},
		{"bad topo kind", func(c *Config) { c.Topo.Kind = topo.Kind(42) }, "topo"},
		{"negative topo credits", func(c *Config) {
			c.Topo.Kind = topo.Ring
			c.Topo.LinkCredits = -1
		}, "credits"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mut(&cfg)
			err := cfg.Validate(4)
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("error %q does not name the offending field (%q)", err, c.frag)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("NewNetwork accepted an invalid config")
				}
				if !strings.Contains(r.(string), "fabric: invalid config") {
					t.Fatalf("panic %q lacks fabric context", r)
				}
			}()
			NewNetwork(sim.NewKernel(), 4, cfg)
		})
	}
}

// TestConfigValidationAcceptsDisabledZeros pins the documented "0 means
// disabled" fields: they must keep constructing.
func TestConfigValidationAcceptsDisabledZeros(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProcsPerNode = 0    // treated as 1
	cfg.CreditsPerPeer = 0  // flow control off
	cfg.AckLatency = 0      // instant hardware ACK
	cfg.FifoCapacity = 0    // lazily clamped by NewFifo
	cfg.RegCacheEntries = 0 // registration model off
	cfg.RegMissCost = 0
	cfg.CallOverhead = 0
	if err := cfg.Validate(4); err != nil {
		t.Fatalf("disabled-zeros config rejected: %v", err)
	}
	NewNetwork(sim.NewKernel(), 4, cfg) // must not panic
}

func TestValidateRejectsNonPositiveRanks(t *testing.T) {
	if err := DefaultConfig().Validate(0); err == nil {
		t.Fatal("Validate accepted a 0-rank network")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewNetwork accepted 0 ranks")
		}
	}()
	NewNetwork(sim.NewKernel(), 0, DefaultConfig())
}

// TestValidateWorldSizeCeiling pins the rank-addressing limit: MaxRanks is
// accepted, one past it is refused naming the packed-field width — beyond
// it rank ids overflow the RankBits-wide packet-key fields and would
// silently corrupt routing.
func TestValidateWorldSizeCeiling(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(MaxRanks); err != nil {
		t.Fatalf("Validate(MaxRanks=%d) = %v, want nil", MaxRanks, err)
	}
	err := cfg.Validate(MaxRanks + 1)
	if err == nil {
		t.Fatalf("Validate(%d) accepted a world past the addressing limit", MaxRanks+1)
	}
	for _, frag := range []string{"addressing limit", "18-bit"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
}
