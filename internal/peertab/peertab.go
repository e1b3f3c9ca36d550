// Package peertab is the per-peer state table every layer keeps toward the
// other ranks of a world: the ω counters and signal replicas of a core
// window, the flow-control credits of a NIC rail.
package peertab

// denseMax is the world size up to which a table is one dense value slice
// (one allocation, no hashing on the hot path). Above it, a slice per rank
// per table would make the state O(n²) across the world, so entries are
// materialized on first touch instead — a rank at scale only ever addresses
// its O(log n) partners.
const denseMax = 2048

// chunkLen is how many sparse entries one slab holds: small enough that a
// table touching a couple of dozen peers wastes less than it uses, large
// enough to amortize the allocation.
const chunkLen = 16

// Table resolves peer rank -> *T. Entries start as the init value given to
// New, so a dense and a sparse table fed the same accesses behave the same.
// T is comparable only so New can tell a zero init from a non-zero one: a
// dense world makes n tables of n entries, and filling the zero ones would
// touch n² entries make has already zeroed.
type Table[T comparable] struct {
	dense  []T
	sparse map[int32]*T
	chunk  []T // unissued tail of the newest sparse slab
	init   T
}

// New sizes a table for an n-rank world.
func New[T comparable](n int, init T) Table[T] {
	t := Table[T]{init: init}
	if n > denseMax {
		t.sparse = make(map[int32]*T, 16)
		return t
	}
	t.dense = make([]T, n)
	var zero T
	if init != zero {
		for i := range t.dense {
			t.dense[i] = init
		}
	}
	return t
}

// Get returns the entry toward peer i, materializing it on first touch. The
// pointer stays valid for the table's lifetime.
func (t *Table[T]) Get(i int) *T {
	if t.dense != nil {
		return &t.dense[i]
	}
	c := t.sparse[int32(i)]
	if c == nil {
		if len(t.chunk) == 0 {
			t.chunk = make([]T, chunkLen)
		}
		c, t.chunk = &t.chunk[0], t.chunk[1:]
		*c = t.init
		t.sparse[int32(i)] = c
	}
	return c
}

// Peek returns a copy of the entry toward peer i without materializing it:
// diagnostics and wait predicates must not change what the table holds.
func (t *Table[T]) Peek(i int) T {
	if t.dense != nil {
		return t.dense[i]
	}
	if c := t.sparse[int32(i)]; c != nil {
		return *c
	}
	return t.init
}
