package fabric

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// fuzzBuildMax is the largest world FuzzConfigValidate builds: larger ones
// are validated and their timing checked, but a MaxRanks fat-tree network
// alone allocates gigabytes.
const fuzzBuildMax = 1024

// FuzzConfigValidate checks that Validate guards everything a Network and
// its timing model rely on: for any config it accepts, NewNetwork builds
// without panicking (worlds up to fuzzBuildMax ranks), and WireTime,
// IntraCopyTime and Latency are non-negative for sizes from 0 to 1<<30 (the
// sampled sizes include both ends; WireTime is monotone in size). The fuzzed
// fields overwrite DefaultConfig.
func FuzzConfigValidate(f *testing.F) {
	type seed struct {
		n, ppn, channels int
		kind             uint8
		alpha, alphaIn   int64
		bw, bwIn, linkBw float64
	}
	def := DefaultConfig()
	base := seed{n: 4, ppn: 1, channels: 1, alpha: def.Alpha, alphaIn: def.AlphaIntra, bw: def.BytesPerUs, bwIn: def.BytesPerUsIntra}
	seeds := []func(s *seed){
		func(s *seed) {},
		func(s *seed) { s.bw = math.NaN() },
		func(s *seed) { s.bwIn = math.NaN() },
		func(s *seed) { s.bw = math.Inf(1) },
		func(s *seed) { s.bwIn = math.Inf(-1) },
		func(s *seed) { s.bw = 0 },
		func(s *seed) { s.bw = 1e-300 },
		func(s *seed) { s.bwIn = math.SmallestNonzeroFloat64 },
		func(s *seed) { s.alpha = 0 },
		func(s *seed) { s.alpha = math.MaxInt64 },
		func(s *seed) { s.kind, s.alpha = uint8(topo.Ring), 1 },
		func(s *seed) { s.n = 0 },
		func(s *seed) { s.n = MaxRanks - 1 },
		func(s *seed) { s.n = MaxRanks + 1 },
		func(s *seed) { s.kind, s.linkBw = uint8(topo.Ring), math.NaN() },
		func(s *seed) { s.kind, s.linkBw = uint8(topo.Torus), math.Inf(1) },
		func(s *seed) { s.kind, s.channels = uint8(topo.FatTree), 2 },
		func(s *seed) { s.n, s.ppn, s.channels = 16, 4, 3 },
	}
	for _, mut := range seeds {
		s := base
		mut(&s)
		f.Add(s.n, s.ppn, s.channels, s.kind, s.alpha, s.alphaIn, s.bw, s.bwIn, s.linkBw)
	}
	f.Fuzz(func(t *testing.T, n, ppn, channels int, kind uint8, alpha, alphaIn int64, bw, bwIn, linkBw float64) {
		cfg := DefaultConfig()
		cfg.ProcsPerNode, cfg.Channels = ppn, channels
		cfg.Alpha, cfg.AlphaIntra = sim.Time(alpha), sim.Time(alphaIn)
		cfg.BytesPerUs, cfg.BytesPerUsIntra = bw, bwIn
		cfg.Topo.Kind, cfg.Topo.LinkBytesPerUs = topo.Kind(kind), linkBw
		if cfg.Validate(n) != nil {
			return
		}
		for _, size := range []int64{0, 1, 8, 4096, 1 << 20, 1<<30 - 1, 1 << 30} {
			// A NaN, infinite or overflowing float converts to MinInt64, and
			// an overflowing sum wraps negative: both show up as d < 0.
			wire, intra, lat := cfg.WireTime(size), cfg.IntraCopyTime(size), cfg.Latency(size)
			if wire < 0 || intra < 0 || lat < 0 {
				t.Fatalf("size %d: WireTime %d, IntraCopyTime %d, Latency %d for accepted config %+v",
					size, wire, intra, lat, cfg)
			}
		}
		if n <= fuzzBuildMax {
			NewNetwork(sim.NewKernel(), n, cfg)
		}
	})
}
