package topo

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// testSpec returns a resolved spec of the given kind (link model filled
// the way the fabric would fill it).
func testSpec(k Kind) Spec {
	return Spec{
		Kind:           k,
		LinkBytesPerUs: 1000,
		HopLatency:     1 * sim.Microsecond,
	}
}

func mustBuild(t *testing.T, spec Spec, nodes int) *Graph {
	t.Helper()
	g, err := Build(spec, nodes)
	if err != nil {
		t.Fatalf("Build(%+v, %d): %v", spec, nodes, err)
	}
	return g
}

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", Crossbar, false},
		{"crossbar", Crossbar, false},
		{"ring", Ring, false},
		{"torus", Torus, false},
		{"fattree", FatTree, false},
		{"fat-tree", FatTree, false},
		{"mesh", Crossbar, true},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []struct {
		name  string
		spec  Spec
		nodes int
	}{
		{"unknown kind", Spec{Kind: Kind(99)}, 4},
		{"zero nodes", testSpec(Ring), 0},
		{"negative dimx", func() Spec { s := testSpec(Torus); s.DimX = -1; return s }(), 4},
		{"negative spines", func() Spec { s := testSpec(FatTree); s.Spines = -2; return s }(), 4},
		{"negative bandwidth", func() Spec { s := testSpec(Ring); s.LinkBytesPerUs = -1; return s }(), 4},
		{"NaN bandwidth", func() Spec { s := testSpec(Ring); s.LinkBytesPerUs = math.NaN(); return s }(), 4},
		{"infinite bandwidth", func() Spec { s := testSpec(Ring); s.LinkBytesPerUs = math.Inf(1); return s }(), 4},
		{"negative hop latency", func() Spec { s := testSpec(Ring); s.HopLatency = -1; return s }(), 4},
		{"negative credits", func() Spec { s := testSpec(Ring); s.LinkCredits = -3; return s }(), 4},
		{"ring single credit", func() Spec { s := testSpec(Ring); s.LinkCredits = 1; return s }(), 4},
		{"negative overhead", func() Spec { s := testSpec(Ring); s.PktOverheadBytes = -1; return s }(), 4},
	}
	for _, c := range bad {
		if _, err := Build(c.spec, c.nodes); err == nil {
			t.Errorf("%s: Build accepted invalid spec", c.name)
		}
	}
	if _, err := Build(testSpec(Crossbar), 4); err == nil {
		t.Error("Build accepted the crossbar (which has no graph)")
	}
	if _, err := Build(Spec{Kind: Ring, HopLatency: sim.Microsecond}, 4); err == nil {
		t.Error("Build accepted unresolved link bandwidth")
	}
}

// TestRoutingReachesDestination checks every (src, dst) pair routes to its
// destination, and that ring/fat-tree path lengths match the closed forms.
func TestRoutingReachesDestination(t *testing.T) {
	specs := []struct {
		name  string
		spec  Spec
		nodes int
	}{
		{"ring8", testSpec(Ring), 8},
		{"ring5", testSpec(Ring), 5},
		{"torus9", testSpec(Torus), 9},
		{"torus7-ragged", testSpec(Torus), 7}, // 3x3 grid, 2 router-only
		{"torus-wide", func() Spec { s := testSpec(Torus); s.DimX = 5; return s }(), 10},
		{"fattree8", func() Spec { s := testSpec(FatTree); s.HostsPerLeaf = 3; s.Spines = 2; return s }(), 8},
		{"fattree1leaf", func() Spec { s := testSpec(FatTree); s.HostsPerLeaf = 8; s.Spines = 2; return s }(), 4},
	}
	for _, c := range specs {
		t.Run(c.name, func(t *testing.T) {
			g := mustBuild(t, c.spec, c.nodes)
			for src := 0; src < c.nodes; src++ {
				for dst := 0; dst < c.nodes; dst++ {
					if src == dst {
						continue
					}
					hops := g.pathLen(src, dst) // panics on a routing loop
					if hops < 1 {
						t.Fatalf("%d->%d: %d hops", src, dst, hops)
					}
				}
			}
		})
	}
}

func TestRingPathLengths(t *testing.T) {
	g := mustBuild(t, testSpec(Ring), 8)
	want := func(src, dst int) int {
		d := (dst - src + 8) % 8
		if d > 8-d {
			d = 8 - d
		}
		return d
	}
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if src == dst {
				continue
			}
			if got := g.pathLen(src, dst); got != want(src, dst) {
				t.Errorf("pathLen(%d,%d) = %d, want %d", src, dst, got, want(src, dst))
			}
		}
	}
	// Tie-break: the 4-apart pair goes toward increasing index (+x).
	if l := g.Links[g.NextHop(0, 4)]; l.To != 1 {
		t.Errorf("NextHop(0,4) goes to %d, want 1 (tie toward increasing index)", l.To)
	}
}

func TestFatTreePathLengths(t *testing.T) {
	s := testSpec(FatTree)
	s.HostsPerLeaf, s.Spines = 4, 2
	g := mustBuild(t, s, 16)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			want := 2 // host -> leaf -> host
			if src/4 != dst/4 {
				want = 4 // host -> leaf -> spine -> leaf -> host
			}
			if got := g.pathLen(src, dst); got != want {
				t.Errorf("pathLen(%d,%d) = %d, want %d", src, dst, got, want)
			}
		}
	}
	// D-mod-k: up-route spine choice is a pure function of the destination.
	l0 := g.Links[g.NextHop(16, 4)] // leaf0 vertex is 16; dst 4 -> spine 4%2=0
	l1 := g.Links[g.NextHop(16, 5)]
	if l0.To == l1.To {
		t.Error("adjacent destinations route over the same spine; want D-mod-k spreading")
	}
}

func TestTorusDimensionOrder(t *testing.T) {
	s := testSpec(Torus)
	s.DimX = 3
	g := mustBuild(t, s, 9)
	// 0 -> 8 (x:0->2, y:0->2): x must be corrected first.
	l := g.Links[g.NextHop(0, 8)]
	if l.To/3 != 0 {
		t.Errorf("NextHop(0,8) leaves row 0 (to vertex %d); want x-first routing", l.To)
	}
}

// TestDeterministicShape pins the link layout: builds are reproducible and
// the normalized spec records the resolved shape.
func TestDeterministicShape(t *testing.T) {
	a := mustBuild(t, testSpec(Torus), 12)
	b := mustBuild(t, testSpec(Torus), 12)
	if fmt.Sprintf("%+v", a.Links) != fmt.Sprintf("%+v", b.Links) {
		t.Fatal("two builds of the same spec differ")
	}
	if a.Spec.DimX != 4 { // ceil(sqrt(12)) = 4
		t.Errorf("torus-12 resolved width %d, want 4", a.Spec.DimX)
	}
	ft := mustBuild(t, testSpec(FatTree), 20)
	if ft.Spec.HostsPerLeaf != 8 || ft.Spec.Spines != 8 {
		t.Errorf("fat-tree defaults %d/%d, want 8/8", ft.Spec.HostsPerLeaf, ft.Spec.Spines)
	}
	if ft.Spec.LinkCredits != DefaultLinkCredits || ft.Spec.PktOverheadBytes != DefaultPktOverheadBytes {
		t.Errorf("link defaults not applied: %+v", ft.Spec)
	}
}

func TestFeedersAscending(t *testing.T) {
	ft := testSpec(FatTree)
	ft.HostsPerLeaf, ft.Spines = 4, 2
	for _, g := range []*Graph{
		mustBuild(t, testSpec(Ring), 6),
		mustBuild(t, testSpec(Torus), 9),
		mustBuild(t, ft, 10),
	} {
		for l, fs := range g.feeders {
			for i, f := range fs {
				if g.Links[f].To != g.Links[l].From {
					t.Fatalf("%s: feeder %d of link %d does not end at its source", g.Spec.Kind, f, l)
				}
				if i > 0 && fs[i-1] >= f {
					t.Fatalf("%s: feeders of link %d not ascending: %v", g.Spec.Kind, l, fs)
				}
				// One position per upstream link, valid in the list of every
				// link leaving its far end: the waiter sets rely on it.
				if int(g.feederPos[f]) != i {
					t.Fatalf("%s: feederPos[%d] = %d, but it is feeder %d of link %d", g.Spec.Kind, f, g.feederPos[f], i, l)
				}
			}
		}
	}
}

// pathLen returns the number of links on the route from host src to host
// dst (diagnostic/testing helper; the engine never materializes paths).
func (g *Graph) pathLen(src, dst int) int {
	hops, v := 0, src
	for v != dst {
		l := g.Links[g.NextHop(v, dst)]
		v = l.To
		hops++
		if hops > g.Verts+len(g.Links) {
			panic(fmt.Sprintf("topo: routing loop %d->%d", src, dst))
		}
	}
	return hops
}
