// Package metrics is the simulator's one counter registry. Each layer
// declares its named counters once, and each world holds one Set: a row per
// rank plus one fabric-wide row, in one allocation. A layer counts with
// row.Add in the row owner's context, so shards never share a row.
package metrics

import (
	"fmt"
	"slices"
	"strings"
)

// ID is a declared counter: its column in every row.
type ID int

var names []string // every declared counter, by ID

// Declare registers a counter from a package-level var; a name declared twice
// panics.
func Declare(name string) ID {
	if slices.Contains(names, name) {
		panic("metrics: counter " + name + " declared twice")
	}
	names = append(names, name)
	return ID(len(names) - 1)
}

// Lookup returns a declared counter's ID for a reader outside its layer.
func Lookup(name string) ID {
	if i := slices.Index(names, name); i >= 0 {
		return ID(i)
	}
	panic("metrics: unknown counter " + name)
}

// Row is a view of one row's live columns: counter id is v[id-lo]. A counter
// outside them is dead in the row: it reads 0, and counting it panics.
type Row struct {
	lo ID
	v  []int64
}

// Add counts d on counter id, which must be live in the row.
func (r Row) Add(id ID, d int64) { r.v[id-r.lo] += d }

// Max raises counter id, live in the row, to at least x: a high-water mark.
func (r Row) Max(id ID, x int64) { r.v[id-r.lo] = max(r.v[id-r.lo], x) }

// Get reads counter id; a dead one reads 0.
func (r Row) Get(id ID) int64 {
	if i := int(id - r.lo); i >= 0 && i < len(r.v) {
		return r.v[i]
	}
	return 0
}

// Set is one world's counters: row r < Ranks is rank r's, row Ranks the
// fabric's. The fabric row holds every counter; a rank row only the columns
// from lo on, the first counter of the first class live in rank rows, so a
// world lays out per rank only what its ranks can count.
type Set struct {
	Ranks int
	lo    ID
	fab   []int64
	ranks []int64 // the rank rows, len(names)-lo columns each
}

// NewSet returns a zeroed set for ranks ranks whose rank rows hold class
// from and every class declared after it (a class is a counter name up to
// its dot; its IDs are contiguous, one package declaring it).
func NewSet(ranks int, from string) Set {
	s := Set{Ranks: ranks, lo: first(from)}
	vals := make([]int64, len(names)+ranks*(len(names)-int(s.lo)))
	s.fab, s.ranks = vals[:len(names):len(names)], vals[len(names):]
	return s
}

// first returns the ID of class cls's first counter; no column at all when
// the class is not declared (its package is not in the program).
func first(cls string) ID {
	if i := slices.IndexFunc(names, func(n string) bool { return strings.HasPrefix(n, cls+".") }); i >= 0 {
		return ID(i)
	}
	return ID(len(names))
}

// From widens the rank rows to start at class cls, laying them out afresh;
// the fabric row keeps its storage. A view of a rank row taken before From
// is left on the old layout, so a world calls it before any layer takes
// one.
func (s *Set) From(cls string) {
	s.lo = first(cls)
	s.ranks = make([]int64, s.Ranks*(len(names)-int(s.lo)))
}

// Row returns row r, a view into the set.
func (s *Set) Row(r int) Row {
	if r == s.Ranks {
		return Row{0, s.fab}
	}
	w := len(names) - int(s.lo)
	return Row{s.lo, s.ranks[r*w : (r+1)*w : (r+1)*w]}
}

// Snapshot sums the given rows, every row when none is given, and renders
// the nonzero counters as sorted "name=value" pairs joined by spaces.
func (s *Set) Snapshot(rows ...int) string {
	var pairs []string
	for id := range names {
		var v int64
		for r := 0; r <= s.Ranks; r++ {
			if len(rows) == 0 || slices.Contains(rows, r) {
				v += s.Row(r).Get(ID(id))
			}
		}
		if v != 0 {
			pairs = append(pairs, fmt.Sprintf("%s=%d", names[id], v))
		}
	}
	slices.Sort(pairs)
	return strings.Join(pairs, " ")
}
