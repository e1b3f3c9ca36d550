// Package peertab is the per-peer state table every layer keeps toward the
// other ranks of a world: the ω counters and signal replicas of a core
// window, the flow-control credits of a NIC rail, the peer slots of an epoch.
package peertab

import (
	"cmp"
	"math/bits"
	"slices"
)

// smallWorld is the world size up to which New makes a table dense from
// the start: one value slice, one allocation, no lookup on the hot path.
// Above it, a dense table per window and per NIC rail would make the state
// O(n²) across the world, though a rank at scale addresses only its
// O(log n) partners, so New makes the sparse form instead.
const smallWorld = 64

// denseMax is the largest world whose sparse table, once crowded (its
// first heap array full), turns itself dense: a rank that addresses more
// than 2·⌈log2 n⌉ peers, such as one picking random targets, is better
// served by n values and no lookup. Above denseMax a crowded table builds
// its index and doubles instead.
const denseMax = 2048

// scanMax is the epoch-table size up to which lookups scan linearly. Groups
// of one to three peers are the common case; a scan of that length costs
// less than a binary search.
const scanMax = 16

// Table resolves peer rank -> *T. Its zero value is an empty epoch table;
// New makes a world table.
//
// The sparse form holds one slot per touched peer, in insertion order, each
// with its rank; a new table's first slot is inline, and a heap array, once
// it takes over, is kept across Reset. Lookups scan the slots up to the
// scan limit (scanLimit) and search a rank-ordered index beyond. Fill turns
// an epoch table dense in place (slot i is rank i).
//
// A sparse world table's first heap array holds its whole scan limit,
// 2·⌈log2 n⌉ slots: the dissemination partners of a rank in both
// directions (17 at 512 ranks) fit with one allocation and no index. A
// world table that outgrows it turns dense if n ≤ denseMax.
//
// A pointer from Get or Find is valid until the next call that adds a slot
// (Add, Get of a new peer, Fill), and a table that holds a slot is not
// copied: the inline slot would stay behind. Len and At enumerate the
// sparse form; Add, Fill and Reset are for epoch tables.
type Table[T any] struct {
	dense  []T       // the dense form: entry i is rank i, no ranks stored
	slots  []slot[T] // the sparse form, insertion order (rank order once filled)
	index  []key     // the slots in rank order; empty up to the scan limit
	world  int32     // New's world size for a sparse world table, else 0
	filled bool      // slot i holds rank i (Fill)
	one    [1]slot[T]
}

type slot[T any] struct {
	rank int32
	v    T
}

// key is one index entry: a rank and its slot, so a binary search reads
// only the index.
type key struct{ rank, slot int32 }

// New sizes a table for an n-rank world: dense up to smallWorld ranks,
// sparse above, turning dense when crowded if n ≤ denseMax.
func New[T any](n int) Table[T] {
	if n > smallWorld {
		return Table[T]{world: int32(n)}
	}
	return Table[T]{dense: make([]T, n)}
}

// Get returns the entry toward peer i, adding a zero one on first touch.
func (t *Table[T]) Get(i int) *T {
	if t.dense != nil {
		return &t.dense[i]
	}
	if t.filled {
		return &t.slots[i].v
	}
	k, found := t.search(i)
	if found {
		return &t.slots[k].v
	}
	n, lim := len(t.slots), t.scanLimit()
	if n == cap(t.slots) {
		switch {
		case n == 0:
			t.grow(1)
		case t.world != 0 && n < lim:
			t.grow(lim - n)
		case t.world != 0 && n == lim && t.world <= denseMax:
			t.promote()
			return &t.dense[i]
		default:
			t.grow(n)
		}
	}
	t.slots = append(t.slots, slot[T]{rank: int32(i)})
	if len(t.index) > 0 {
		t.index = slices.Insert(t.index, k, key{int32(i), int32(n)})
	} else if n == lim {
		t.buildIndex()
	}
	return &t.slots[n].v
}

// scanLimit is the slot count up to which lookups scan linearly.
func (t *Table[T]) scanLimit() int {
	if t.world == 0 {
		return scanMax
	}
	return 2 * bits.Len32(uint32(t.world-1))
}

// promote turns a crowded sparse world table into the dense form, keeping
// every value.
func (t *Table[T]) promote() {
	d := make([]T, t.world)
	for _, s := range t.slots {
		d[s.rank] = s.v
	}
	t.dense, t.slots = d, nil
}

// Find returns the entry toward peer i, or nil if the table holds none.
func (t *Table[T]) Find(i int) *T {
	switch {
	case t.dense != nil:
		return &t.dense[i]
	case t.filled:
		if uint(i) < uint(len(t.slots)) {
			return &t.slots[i].v
		}
	default:
		if k, found := t.search(i); found {
			return &t.slots[k].v
		}
	}
	return nil
}

// Peek returns a copy of the entry toward peer i without adding it:
// diagnostics and wait predicates must not change what the table holds.
func (t *Table[T]) Peek(i int) T {
	if p := t.Find(i); p != nil {
		return *p
	}
	var zero T
	return zero
}

// Len is the number of slots; At(k) for k below it enumerates them in
// insertion order (rank order once filled), with their ranks.
func (t *Table[T]) Len() int { return len(t.slots) }

func (t *Table[T]) At(k int) (int, *T) { return int(t.slots[k].rank), &t.slots[k].v }

// search returns the slot holding rank i, or, if none does, the position in
// index where its key would go.
func (t *Table[T]) search(i int) (int, bool) {
	if len(t.index) == 0 {
		for k := range t.slots {
			if int(t.slots[k].rank) == i {
				return k, true
			}
		}
		return 0, false
	}
	lo, hi := 0, len(t.index)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(t.index[m].rank) < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(t.index) && int(t.index[lo].rank) == i {
		return int(t.index[lo].slot), true
	}
	return lo, false
}

// buildIndex sorts the slots by rank.
func (t *Table[T]) buildIndex() {
	t.index = t.index[:0]
	if cap(t.index) < cap(t.slots) {
		t.index = make([]key, 0, cap(t.slots))
	}
	for k := range t.slots {
		t.index = append(t.index, key{t.slots[k].rank, int32(k)})
	}
	slices.SortFunc(t.index, func(a, b key) int { return cmp.Compare(a.rank, b.rank) })
}

// Add appends a zero slot for each of ranks, in order, none of which the
// table may hold yet: an explicit group, installed with one allocation at
// most and one index sort rather than a search per rank.
func (t *Table[T]) Add(ranks ...int) {
	t.grow(len(ranks))
	for _, r := range ranks {
		t.slots = append(t.slots, slot[T]{rank: int32(r)})
	}
	if len(t.slots) > scanMax {
		t.buildIndex()
	}
}

// grow makes room for n more slots, so that adding them allocates nothing:
// the inline slot for a new table of one, else a heap array of exactly the
// size asked for.
func (t *Table[T]) grow(n int) {
	n += len(t.slots)
	if n <= cap(t.slots) {
		return
	}
	s := t.one[:0]
	if n > 1 {
		s = make([]slot[T], 0, n)
	}
	t.slots = append(s, t.slots...)
}

// Fill gives the table a slot for every rank below n, in rank order, and
// keeps what each existing slot holds; every rank it holds must be below n.
// The slots move in place, so a table that already had room for n
// allocates nothing.
func (t *Table[T]) Fill(n int) {
	t.grow(n - len(t.slots))
	slices.SortFunc(t.slots, func(a, b slot[T]) int { return cmp.Compare(a.rank, b.rank) })
	// Sorted, slot j's rank is at least j: moving the highest first never
	// overwrites a slot still to move, and the gaps between them are free.
	s, hi := t.slots[:n], n
	for j := len(t.slots) - 1; j >= 0; j-- {
		r := s[j].rank
		clear(s[r+1 : hi])
		s[r], hi = s[j], int(r)
	}
	clear(s[:hi])
	for i := range s {
		s[i].rank = int32(i)
	}
	t.slots, t.index, t.filled = s, t.index[:0], true
}

// Reset empties the table and keeps its arrays for reuse.
func (t *Table[T]) Reset() {
	t.slots, t.index, t.filled = t.slots[:0], t.index[:0], false
}
