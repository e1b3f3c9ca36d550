// Package metrics is the simulator's one counter registry. Each layer
// declares its named counters once, and each world holds one Set: a row per
// rank plus one fabric-wide row, in one allocation. A layer counts with
// row[id]++ in the row owner's context, so shards never share a row.
package metrics

import (
	"fmt"
	"slices"
	"strings"
)

// ID is a declared counter: its column in every row.
type ID int

var names []string // every declared counter, by ID

// Declare registers a counter from a package-level var; a name declared twice panics.
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

// Row is one rank's counters, or the fabric's, indexed by ID.
type Row []int64

// Set is one world's counters: row r < Ranks is rank r's, row Ranks the fabric's.
type Set struct {
	Ranks, width int
	vals         []int64
}

// NewSet returns a zeroed set of every declared counter for ranks ranks.
func NewSet(ranks int) Set {
	return Set{ranks, len(names), make([]int64, (ranks+1)*len(names))}
}

// Row returns row r, a view into the set.
func (s Set) Row(r int) Row { return s.vals[r*s.width : (r+1)*s.width : (r+1)*s.width] }

// Snapshot sums the given rows, every row when none is given, and renders
// the nonzero counters as sorted "name=value" pairs joined by spaces.
func (s Set) Snapshot(rows ...int) string {
	var pairs []string
	for id := range s.width {
		var v int64
		for r := 0; r <= s.Ranks; r++ {
			if len(rows) == 0 || slices.Contains(rows, r) {
				v += s.vals[r*s.width+id]
			}
		}
		if v != 0 {
			pairs = append(pairs, fmt.Sprintf("%s=%d", names[id], v))
		}
	}
	slices.Sort(pairs)
	return strings.Join(pairs, " ")
}
