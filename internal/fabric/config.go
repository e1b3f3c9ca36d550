// Package fabric models the cluster interconnect: per-rank NICs with a
// serial injection pipeline, credit-based flow control, an
// alpha + size/bandwidth latency model, intranode wait-free 64-bit FIFOs
// and a registration-cache cost model.
//
// The fabric is the stand-in for the paper's 310-node ConnectX QDR
// InfiniBand cluster. Its defining property — shared with RDMA hardware —
// is that packet delivery mutates receiver-side state in kernel (event)
// context, without any receiver CPU involvement: upper layers register a
// delivery handler that plays the role of NIC/HCA processing.
package fabric

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Config describes the performance characteristics of the interconnect.
type Config struct {
	// ProcsPerNode maps ranks onto nodes: ranks r with equal r/ProcsPerNode
	// share a node. 1 means every rank is alone on its node (all traffic is
	// internode).
	ProcsPerNode int

	// Alpha is the internode base (propagation + handshake) latency applied
	// to every packet regardless of size.
	Alpha sim.Time

	// BytesPerUs is the internode injection bandwidth in bytes per
	// microsecond of virtual time. The wire occupancy of a packet of s
	// bytes is s/BytesPerUs microseconds.
	BytesPerUs float64

	// AlphaIntra and BytesPerUsIntra are the intranode (shared-memory)
	// equivalents.
	AlphaIntra      sim.Time
	BytesPerUsIntra float64

	// CreditsPerPeer is the number of outstanding unacknowledged packets a
	// NIC may have in flight toward one peer before it must stall (flow
	// control). 0 disables flow control.
	CreditsPerPeer int

	// AckLatency is the extra delay after delivery before the sender's
	// credit is returned (hardware ACK propagation).
	AckLatency sim.Time

	// FifoCapacity is the capacity, in 64-bit packets, of each direction of
	// the intranode notification FIFO between two ranks.
	FifoCapacity int

	// RegCacheEntries is the capacity of each rank's memory-registration
	// cache; RegMissCost is the pinning cost charged when a transfer uses a
	// buffer absent from the cache. 0 entries disables the model.
	RegCacheEntries int
	RegMissCost     sim.Time

	// CallOverhead is the CPU cost charged for entering an MPI call
	// (argument checking, handle translation, a progress-engine poke).
	// It is what separates "New" from "New nonblocking" when epochs are
	// issued back to back: blocking code pays it serially between
	// completion waits, nonblocking code pays it up front, overlapped.
	CallOverhead sim.Time

	// Channels is the number of data rails (independent injection
	// pipelines, each with the full BytesPerUs bandwidth) per NIC — the
	// multi-rail HCA model of RDMA-era MPI stacks. 1 is the classic
	// single-pipeline NIC. Above 1 the NIC additionally dedicates a
	// separate control rail to small protocol packets (signals, locks,
	// dones, ACKs) so epoch-close latency is immune to data-plane
	// queueing, and stripes large transfers across the data rails in
	// deterministic chunks. Multi-rail NICs model parallel crossbar
	// ports; they cannot be combined with a modeled topology.
	Channels int

	// Topo selects the interconnect topology and congestion model
	// (internal/topo). The zero value is the ideal contention-free
	// crossbar — today's fabric, bit for bit. Any other kind routes every
	// internode packet hop by hop through shared links with bandwidth
	// arbitration and credit flow control; zero link-model fields inherit
	// the fabric calibration (LinkBytesPerUs from BytesPerUs, HopLatency
	// from Alpha/2).
	Topo topo.Spec
}

// RankBits is the width of the rank-id fields packed into control-message
// words (internal/core packs kind|win|src|value into one uint64) and the
// reason MaxRanks exists: a world larger than 1<<RankBits would silently
// alias rank ids inside packet keys.
const RankBits = 18

// MaxRanks is the largest world size the fabric and the layers above it can
// address. Validate and mpi.NewWorld both reject anything larger with a
// contextual error instead of corrupting keys at runtime.
const MaxRanks = 1 << RankBits

// The timing model's range. Validate vouches for transfers of up to
// maxWireBytes: it bounds each base latency, and the wire or copy time of
// such a transfer, by maxTerm — a quarter of the virtual clock's range — so
// WireTime, IntraCopyTime and Latency (their sum) can neither overflow nor
// wrap negative. minBytesPerUs is the bandwidth that moves maxWireBytes in
// exactly maxTerm.
const (
	maxWireBytes  = 1 << 30
	maxTerm       = sim.Time(math.MaxInt64 / 4)
	minBytesPerUs = float64(maxWireBytes) * float64(sim.Microsecond) / float64(maxTerm)
)

// Validate checks the configuration a Network is about to be built from.
// Non-positive latency or bandwidth terms would silently produce nonsense
// schedules (zero or negative wire times), and so would a NaN, infinite or
// vanishingly small bandwidth (a wire time of MinInt64 or zero), so
// construction refuses them along with terms past the timing model's range;
// fields where zero means "disabled" (CreditsPerPeer, RegCacheEntries,
// ProcsPerNode, AckLatency, ...) only reject negatives.
func (c Config) Validate(n int) error {
	if n <= 0 {
		return fmt.Errorf("network needs at least one rank, got %d", n)
	}
	if n > MaxRanks {
		return fmt.Errorf("world size %d exceeds the %d-rank addressing limit (rank ids are packed into %d-bit packet-key fields)",
			n, MaxRanks, RankBits)
	}
	if c.Alpha <= 0 || c.Alpha > maxTerm {
		return fmt.Errorf("internode base latency Alpha %d ns is not in (0, %d]", c.Alpha, maxTerm)
	}
	if !usableBandwidth(c.BytesPerUs) {
		return fmt.Errorf("internode bandwidth BytesPerUs %g is not a finite rate of at least %g bytes/us", c.BytesPerUs, minBytesPerUs)
	}
	if c.AlphaIntra <= 0 || c.AlphaIntra > maxTerm {
		return fmt.Errorf("intranode base latency AlphaIntra %d ns is not in (0, %d]", c.AlphaIntra, maxTerm)
	}
	if !usableBandwidth(c.BytesPerUsIntra) {
		return fmt.Errorf("intranode bandwidth BytesPerUsIntra %g is not a finite rate of at least %g bytes/us", c.BytesPerUsIntra, minBytesPerUs)
	}
	if c.ProcsPerNode < 0 {
		return fmt.Errorf("negative ProcsPerNode %d", c.ProcsPerNode)
	}
	if c.CreditsPerPeer < 0 {
		return fmt.Errorf("negative CreditsPerPeer %d (0 disables flow control)", c.CreditsPerPeer)
	}
	if c.AckLatency < 0 {
		return fmt.Errorf("negative AckLatency %d ns", c.AckLatency)
	}
	if c.FifoCapacity < 0 {
		return fmt.Errorf("negative FifoCapacity %d", c.FifoCapacity)
	}
	if c.RegCacheEntries < 0 {
		return fmt.Errorf("negative RegCacheEntries %d (0 disables the model)", c.RegCacheEntries)
	}
	if c.RegMissCost < 0 {
		return fmt.Errorf("negative RegMissCost %d ns", c.RegMissCost)
	}
	if c.CallOverhead < 0 {
		return fmt.Errorf("negative CallOverhead %d ns", c.CallOverhead)
	}
	if c.Channels <= 0 {
		return fmt.Errorf("non-positive Channels %d (a NIC needs at least one rail; DefaultConfig uses 1)", c.Channels)
	}
	if rails := c.Rails(); n > MaxRanks/rails {
		return fmt.Errorf("world size %d with %d NIC rails needs %d virtual ports, exceeding the %d-port limit (rank and rail ids share the %d-bit packet-key budget)",
			n, rails, n*rails, MaxRanks, RankBits)
	}
	if c.Channels > 1 && c.Topo.Kind != topo.Crossbar {
		return fmt.Errorf("Channels %d with a modeled topology (%v): multi-rail NICs model parallel crossbar ports and cannot ride the hop-by-hop link model", c.Channels, c.Topo.Kind)
	}
	if err := c.topoSpec().Validate(c.NodeOf(n-1) + 1); err != nil {
		return err
	}
	return nil
}

// usableBandwidth reports whether x is finite and at least minBytesPerUs.
// NaN fails every comparison, so the test accepts rather than rejects.
func usableBandwidth(x float64) bool { return x >= minBytesPerUs && !math.IsInf(x, 1) }

// Rails returns the number of injection pipelines each NIC runs: the single
// shared rail of the classic model, or — with Channels > 1 — the Channels
// data rails plus the dedicated control rail (index 0).
func (c Config) Rails() int {
	if c.Channels <= 1 {
		return 1
	}
	return c.Channels + 1
}

// DefaultConfig returns the calibration used throughout the benchmark
// harness: small-packet latency 2 us and an injection bandwidth that makes
// a 1 MB put cost about 340 us end to end, matching the numbers reported in
// the paper's evaluation (Section VIII: "any epoch hosting an MPI_PUT of
// 1 MB takes about 340 us").
func DefaultConfig() Config {
	return Config{
		ProcsPerNode:    1,
		Alpha:           2 * sim.Microsecond,
		BytesPerUs:      3100, // ~3.1 GB/s => 1 MiB wire time ~338 us
		AlphaIntra:      500 * sim.Nanosecond,
		BytesPerUsIntra: 12000, // ~12 GB/s shared-memory copy
		CreditsPerPeer:  64,
		AckLatency:      2 * sim.Microsecond,
		FifoCapacity:    256,
		RegCacheEntries: 64,
		RegMissCost:     5 * sim.Microsecond,
		CallOverhead:    400 * sim.Nanosecond,
		Channels:        1,
	}
}

// NodeOf returns the node index hosting rank r. It and SameNode take a
// pointer: they sit on the per-op issue and delivery paths, where a value
// receiver copies the whole Config at every inlined call.
func (c *Config) NodeOf(r int) int {
	ppn := c.ProcsPerNode
	if ppn <= 0 {
		ppn = 1
	}
	return r / ppn
}

// SameNode reports whether ranks a and b share a node.
func (c *Config) SameNode(a, b int) bool { return c.NodeOf(a) == c.NodeOf(b) }

// WireTime returns how long a packet of size bytes occupies the injection
// pipeline on the internode path.
func (c Config) WireTime(size int64) sim.Time {
	if size <= 0 || c.BytesPerUs <= 0 {
		return 0
	}
	return sim.Time(float64(size) / c.BytesPerUs * float64(sim.Microsecond))
}

// IntraCopyTime returns the CPU time needed to move size bytes across the
// intranode shared-memory path.
func (c Config) IntraCopyTime(size int64) sim.Time {
	if size <= 0 || c.BytesPerUsIntra <= 0 {
		return 0
	}
	return sim.Time(float64(size) / c.BytesPerUsIntra * float64(sim.Microsecond))
}

// Latency returns the full internode transfer latency of one isolated
// packet of size bytes (wire occupancy plus base latency).
func (c Config) Latency(size int64) sim.Time {
	return c.Alpha + c.WireTime(size)
}
