// Package topo models the interconnect topology and congestion behavior of
// the simulated cluster: topology descriptions (ring, torus, k-ary
// fat-tree), deterministic destination-based routing with fixed
// tie-breaking, and a per-link congestion engine — shared-bandwidth
// arbitration on the virtual clock plus credit-based flow control in the
// style of InfiniBand's per-link credits.
//
// The default interconnect (Crossbar) is not modeled here at all: the
// fabric's ideal contention-free crossbar stays exactly as it was, and
// internal/fabric only instantiates an Engine for the other kinds. Every
// routing and arbitration decision is a pure function of the topology
// Spec and the traffic (per-link FIFO service, fixed tie-breaks, no
// randomness), so simulations remain bit-for-bit reproducible.
package topo

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Kind selects the interconnect topology.
type Kind int

// Supported topologies.
const (
	// Crossbar is the ideal contention-free interconnect: every packet
	// sees alpha + size/BW in isolation. It is the fabric default and is
	// implemented by the fabric itself (no Engine is built).
	Crossbar Kind = iota
	// Ring connects the nodes in a bidirectional ring; routing takes the
	// shorter direction, breaking ties toward increasing node index.
	Ring
	// Torus is a 2-D bidirectional torus with dimension-ordered (x then
	// y) routing, each dimension shortest-path with the same tie-break.
	Torus
	// FatTree is a two-level k-ary fat-tree (leaf/spine): nodes attach to
	// leaf switches in index order, every leaf connects to every spine,
	// and up-routes pick spine dst%S (deterministic D-mod-k routing).
	FatTree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crossbar:
		return "crossbar"
	case Ring:
		return "ring"
	case Torus:
		return "torus"
	case FatTree:
		return "fattree"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses a topology name as accepted by the -topo flags.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "crossbar":
		return Crossbar, nil
	case "ring":
		return Ring, nil
	case "torus":
		return Torus, nil
	case "fattree", "fat-tree":
		return FatTree, nil
	}
	return Crossbar, fmt.Errorf("topo: unknown topology %q (want crossbar, ring, torus or fattree)", s)
}

// Spec describes one interconnect: a topology kind, its shape parameters,
// and the per-link performance model. The zero value is the crossbar. Zero
// shape/link fields select defaults (filled in by Build; the fabric
// substitutes its own calibration for the link model before building).
type Spec struct {
	Kind Kind

	// DimX is the torus width; height is derived as ceil(nodes/DimX).
	// 0 picks the most square grid (ceil(sqrt(nodes))).
	DimX int

	// HostsPerLeaf and Spines shape the fat-tree: leaves = ceil(nodes /
	// HostsPerLeaf), each connected to every spine. Both default to 8,
	// i.e. a radix-16 switch with half its ports down and half up.
	HostsPerLeaf int
	Spines       int

	// LinkBytesPerUs is the bandwidth of every link; HopLatency the
	// per-hop propagation/switching delay; LinkCredits the number of
	// packet buffers at each link's downstream end (credit flow control);
	// PktOverheadBytes the per-packet framing charged on every link, which
	// is what makes small control packets occupy shared links at all.
	LinkBytesPerUs   float64
	HopLatency       sim.Time
	LinkCredits      int
	PktOverheadBytes int
}

// Default link-model parameters, substituted by Build for zero fields.
const (
	DefaultLinkCredits      = 8
	DefaultPktOverheadBytes = 64
)

// Validate checks the spec against a node count. Link-model fields must
// already be resolved to positive values by the caller (the fabric fills
// them from its own calibration; Build applies the package defaults for
// credits and packet overhead).
func (s Spec) Validate(nodes int) error {
	if s.Kind < Crossbar || s.Kind > FatTree {
		return fmt.Errorf("topo: unknown topology kind %d", int(s.Kind))
	}
	if nodes <= 0 {
		return fmt.Errorf("topo: %d nodes (need at least 1)", nodes)
	}
	if s.DimX < 0 {
		return fmt.Errorf("topo: negative torus width %d", s.DimX)
	}
	if s.Kind == Torus && s.DimX > 0 && s.DimX < 2 && nodes > 1 {
		return fmt.Errorf("topo: torus width %d too small (need >= 2)", s.DimX)
	}
	if s.HostsPerLeaf < 0 || s.Spines < 0 {
		return fmt.Errorf("topo: negative fat-tree shape (hosts/leaf %d, spines %d)", s.HostsPerLeaf, s.Spines)
	}
	if !(s.LinkBytesPerUs >= 0) || math.IsInf(s.LinkBytesPerUs, 1) { // NaN fails every comparison
		return fmt.Errorf("topo: link bandwidth %g bytes/us is negative or not finite", s.LinkBytesPerUs)
	}
	if s.HopLatency < 0 {
		return fmt.Errorf("topo: negative hop latency %d", s.HopLatency)
	}
	if s.LinkCredits < 0 {
		return fmt.Errorf("topo: negative link credits %d", s.LinkCredits)
	}
	if s.LinkCredits == 1 && (s.Kind == Ring || s.Kind == Torus) {
		// Rings need headroom for the bubble rule (see engine.go): with a
		// single buffer per link an injection could never satisfy the
		// two-free-slots condition and the network would refuse traffic.
		return fmt.Errorf("topo: %s needs LinkCredits >= 2 (bubble flow control), got 1", s.Kind)
	}
	if s.PktOverheadBytes < 0 {
		return fmt.Errorf("topo: negative packet overhead %d bytes", s.PktOverheadBytes)
	}
	return nil
}
