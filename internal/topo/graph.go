package topo

import (
	"fmt"

	"repro/internal/sim"
)

// Link is one directed link of the built topology.
type Link struct {
	ID       int
	From, To int // vertex ids (see Graph vertex numbering)

	BytesPerUs float64
	Lat        sim.Time
	Credits    int

	// Cyc identifies the directed ring cycle the link belongs to (-1 for
	// acyclic links). The congestion engine's bubble flow-control rule
	// charges two credits to enter a cycle and one to continue inside it,
	// which is what keeps ring/torus wormhole routing deadlock-free.
	Cyc int
}

// Graph is one built topology: vertices, directed links and the routing
// function. Vertex numbering: hosts (nodes) come first, 0..N-1; routing
// vertices follow. For ring/torus the hosts themselves are the routers
// (grid positions beyond the node count are router-only pass-throughs);
// for the fat-tree, leaves then spines follow the hosts.
type Graph struct {
	Spec  Spec // normalized: all defaults resolved
	N     int  // hosts
	Verts int
	Links []Link

	// feeders[l] lists, in ascending order, the links whose To vertex is
	// Links[l].From — the upstream links that may be waiting for one of
	// l's credits. Precomputed so credit releases kick deterministically.
	// All links leaving one vertex share the same list (the links into that
	// vertex), so an upstream link has one position in it whichever link it
	// waits on: feederPos[f] is f's index in feeders[l] for every l with
	// Links[l].From == Links[f].To — the bit the engine's per-link waiter
	// sets keep for f.
	feeders   [][]int32
	feederPos []int32

	// Routing state per kind.
	w, h                    int       // torus/ring grid (ring is h == 1)
	xPlus, xMinus           []int32   // per grid vertex: +x / -x link
	yPlus, yMinus           []int32   // per grid vertex: +y / -y link
	hostUp                  []int32   // fat-tree: host -> its leaf
	leafDown                [][]int32 // fat-tree: per leaf, per local slot
	leafUp                  [][]int32 // fat-tree: per leaf, per spine
	spineDown               [][]int32 // fat-tree: per spine, per leaf
	leaves, spines, perLeaf int
}

// Build constructs the graph for spec over the given node count, resolving
// zero shape/link fields to their defaults. The crossbar has no graph.
func Build(spec Spec, nodes int) (*Graph, error) {
	if spec.LinkCredits == 0 {
		spec.LinkCredits = DefaultLinkCredits
	}
	if spec.PktOverheadBytes == 0 {
		spec.PktOverheadBytes = DefaultPktOverheadBytes
	}
	if err := spec.Validate(nodes); err != nil {
		return nil, err
	}
	if spec.Kind == Crossbar {
		return nil, fmt.Errorf("topo: the crossbar has no topology graph (it is the fabric default)")
	}
	if spec.LinkBytesPerUs <= 0 {
		return nil, fmt.Errorf("topo: link bandwidth unresolved (%g bytes/us); the caller must supply a calibration", spec.LinkBytesPerUs)
	}
	if spec.HopLatency <= 0 {
		return nil, fmt.Errorf("topo: hop latency unresolved (%d); the caller must supply a calibration", spec.HopLatency)
	}
	g := &Graph{Spec: spec, N: nodes}
	switch spec.Kind {
	case Ring:
		g.buildGrid(nodes, 1)
	case Torus:
		w := spec.DimX
		if w == 0 {
			w = 1
			for w*w < nodes {
				w++
			}
		}
		if w > nodes {
			w = nodes
		}
		if w < 1 {
			w = 1
		}
		g.buildGrid(w, (nodes+w-1)/w)
	case FatTree:
		perLeaf := spec.HostsPerLeaf
		if perLeaf == 0 {
			perLeaf = 8
		}
		spines := spec.Spines
		if spines == 0 {
			spines = 8
		}
		g.buildFatTree(perLeaf, spines)
	}
	g.Spec = g.normalizedSpec()
	g.buildFeeders()
	return g, nil
}

// normalizedSpec records the resolved shape back into the stored spec so
// diagnostics print the actual topology.
func (g *Graph) normalizedSpec() Spec {
	s := g.Spec
	if s.Kind == Torus {
		s.DimX = g.w
	}
	if s.Kind == FatTree {
		s.HostsPerLeaf = g.perLeaf
		s.Spines = g.spines
	}
	return s
}

// addLink appends a directed link and returns its id.
func (g *Graph) addLink(from, to, cyc int) int32 {
	id := len(g.Links)
	g.Links = append(g.Links, Link{
		ID:         id,
		From:       from,
		To:         to,
		BytesPerUs: g.Spec.LinkBytesPerUs,
		Lat:        g.Spec.HopLatency,
		Credits:    g.Spec.LinkCredits,
		Cyc:        cyc,
	})
	return int32(id)
}

// buildGrid constructs a w x h bidirectional torus (h == 1 is the ring).
// Grid positions are the routers; positions >= N carry no host but still
// route. Each row is a +x and a -x cycle, each column a +y and a -y cycle.
func (g *Graph) buildGrid(w, h int) {
	g.w, g.h = w, h
	g.Verts = w * h
	n := g.Verts
	g.xPlus = make([]int32, n)
	g.xMinus = make([]int32, n)
	g.yPlus = make([]int32, n)
	g.yMinus = make([]int32, n)
	for i := range g.xPlus {
		g.xPlus[i], g.xMinus[i], g.yPlus[i], g.yMinus[i] = -1, -1, -1, -1
	}
	cyc := 0
	if w > 1 {
		for y := 0; y < h; y++ {
			plusCyc, minusCyc := cyc, cyc+1
			cyc += 2
			for x := 0; x < w; x++ {
				v := y*w + x
				g.xPlus[v] = g.addLink(v, y*w+(x+1)%w, plusCyc)
				g.xMinus[v] = g.addLink(v, y*w+(x-1+w)%w, minusCyc)
			}
		}
	}
	if h > 1 {
		for x := 0; x < w; x++ {
			plusCyc, minusCyc := cyc, cyc+1
			cyc += 2
			for y := 0; y < h; y++ {
				v := y*w + x
				g.yPlus[v] = g.addLink(v, ((y+1)%h)*w+x, plusCyc)
				g.yMinus[v] = g.addLink(v, ((y-1+h)%h)*w+x, minusCyc)
			}
		}
	}
}

// buildFatTree constructs the two-level leaf/spine fat-tree.
func (g *Graph) buildFatTree(perLeaf, spines int) {
	n := g.N
	leaves := (n + perLeaf - 1) / perLeaf
	g.perLeaf, g.leaves, g.spines = perLeaf, leaves, spines
	g.Verts = n + leaves + spines
	leafVert := func(l int) int { return n + l }
	spineVert := func(s int) int { return n + leaves + s }

	g.hostUp = make([]int32, n)
	g.leafDown = make([][]int32, leaves)
	g.leafUp = make([][]int32, leaves)
	g.spineDown = make([][]int32, spines)
	for s := range g.spineDown {
		g.spineDown[s] = make([]int32, leaves)
	}
	for l := 0; l < leaves; l++ {
		g.leafDown[l] = make([]int32, perLeaf)
		for slot := 0; slot < perLeaf; slot++ {
			h := l*perLeaf + slot
			if h >= n {
				g.leafDown[l][slot] = -1
				continue
			}
			g.hostUp[h] = g.addLink(h, leafVert(l), -1)
			g.leafDown[l][slot] = g.addLink(leafVert(l), h, -1)
		}
		g.leafUp[l] = make([]int32, spines)
		for s := 0; s < spines; s++ {
			g.leafUp[l][s] = g.addLink(leafVert(l), spineVert(s), -1)
			g.spineDown[s][l] = g.addLink(spineVert(s), leafVert(l), -1)
		}
	}
}

// buildFeeders precomputes, for every link, the ascending list of upstream
// links that transmit into its source vertex, and every link's position in
// the list it appears in.
func (g *Graph) buildFeeders() {
	into := make([][]int32, g.Verts)
	g.feederPos = make([]int32, len(g.Links))
	for _, l := range g.Links {
		g.feederPos[l.ID] = int32(len(into[l.To]))
		into[l.To] = append(into[l.To], int32(l.ID))
	}
	g.feeders = make([][]int32, len(g.Links))
	for i := range g.Links {
		g.feeders[i] = into[g.Links[i].From]
	}
}

// NextHop returns the link a packet at vertex v must take toward host dst.
// It is destination-based and deterministic: shortest direction per torus
// dimension with ties broken toward increasing index, dimension order x
// then y, and D-mod-k spine selection in the fat-tree.
func (g *Graph) NextHop(v, dst int) int {
	switch g.Spec.Kind {
	case Ring, Torus:
		x, y := v%g.w, v/g.w
		dx, dy := dst%g.w, dst/g.w
		if x != dx {
			d := (dx - x + g.w) % g.w
			if d <= g.w-d {
				return int(g.xPlus[v])
			}
			return int(g.xMinus[v])
		}
		d := (dy - y + g.h) % g.h
		if d <= g.h-d {
			return int(g.yPlus[v])
		}
		return int(g.yMinus[v])
	case FatTree:
		n := g.N
		switch {
		case v < n: // host: the only way is up
			return int(g.hostUp[v])
		case v < n+g.leaves: // leaf switch
			l := v - n
			dstLeaf := dst / g.perLeaf
			if dstLeaf == l {
				return int(g.leafDown[l][dst%g.perLeaf])
			}
			return int(g.leafUp[l][dst%g.spines])
		default: // spine switch
			return int(g.spineDown[v-n-g.leaves][dst/g.perLeaf])
		}
	}
	panic(fmt.Sprintf("topo: NextHop on kind %v", g.Spec.Kind))
}

// VertName renders a vertex for diagnostics.
func (g *Graph) VertName(v int) string {
	if g.Spec.Kind == FatTree {
		switch {
		case v < g.N:
			return fmt.Sprintf("host%d", v)
		case v < g.N+g.leaves:
			return fmt.Sprintf("leaf%d", v-g.N)
		default:
			return fmt.Sprintf("spine%d", v-g.N-g.leaves)
		}
	}
	if v < g.N {
		return fmt.Sprintf("node%d", v)
	}
	return fmt.Sprintf("router%d", v)
}

// LinkName renders a link for diagnostics.
func (g *Graph) LinkName(id int) string {
	l := g.Links[id]
	return g.VertName(l.From) + "->" + g.VertName(l.To)
}
