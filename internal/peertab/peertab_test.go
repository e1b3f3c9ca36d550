package peertab

import "testing"

type entry struct{ a, b int64 }

// A dense and a sparse table given the same touch sequence hold the same
// values, and the sparse one enumerates its peers in first-touch order.
func TestDenseSparseAgree(t *testing.T) {
	dense, sparse := New[entry](smallWorld), New[entry](smallWorld+1)
	if dense.dense == nil || sparse.dense != nil {
		t.Fatalf("smallWorld=%d is not the dense/sparse boundary", smallWorld)
	}
	touches := []int{3, 63, 3, 0, 31, 63, 17, 3}
	for step, i := range touches {
		for _, tab := range []*Table[entry]{&dense, &sparse} {
			e := tab.Get(i)
			e.a += int64(step)
			e.b++
		}
	}
	for i := 0; i < smallWorld; i++ {
		if d, s := dense.Peek(i), sparse.Peek(i); d != s {
			t.Fatalf("peer %d: dense %+v, sparse %+v", i, d, s)
		}
	}
	if got, want := dense.Peek(3), (entry{0 + 2 + 7, 3}); got != want {
		t.Fatalf("peer 3: %+v, want %+v", got, want)
	}
	if got := sparse.Peek(1); got != (entry{}) {
		t.Fatalf("untouched sparse peer reads %+v, want zero", got)
	}
	for k, want := range []int{3, 63, 0, 31, 17} {
		if r, e := sparse.At(k); r != want || *e != sparse.Peek(want) {
			t.Fatalf("sparse slot %d holds rank %d (%+v), want rank %d", k, r, *e, want)
		}
	}
	if sparse.Len() != 5 || sparse.dense != nil {
		t.Fatalf("sparse Len() = %d (dense %t), want 5 slots", sparse.Len(), sparse.dense != nil)
	}
}

// A sparse world table holds 2·log2(n) peers in one allocation, scanned
// without an index. The next new peer turns a 512-rank table dense and a
// 4 096-rank table (above denseMax) indexed, every value kept either way.
func TestWorldTableCrowding(t *testing.T) {
	for _, c := range []struct {
		n, fits int
		dense   bool
	}{{512, 18, true}, {4096, 24, false}} {
		peer := func(k int) int { return (k * 97) % c.n } // scattered, unsorted
		const runs = 50
		tabs := make([]Table[entry], runs+1)
		run := 0
		allocs := testing.AllocsPerRun(runs, func() {
			tab := &tabs[run]
			run++
			*tab = New[entry](c.n)
			for k := range c.fits {
				tab.Get(peer(k)).a = int64(k + 1)
			}
		})
		tab := &tabs[0]
		if allocs != 1 || tab.dense != nil || len(tab.index) != 0 || tab.Len() != c.fits {
			t.Fatalf("n=%d: %.1f allocations for %d peers (dense %t, %d indexed, %d slots), want 1 sparse unindexed",
				c.n, allocs, c.fits, tab.dense != nil, len(tab.index), tab.Len())
		}
		tab.Get(peer(c.fits)).a = int64(c.fits + 1)
		if got := tab.dense != nil; got != c.dense {
			t.Fatalf("n=%d: peer %d made the table dense = %t, want %t", c.n, c.fits+1, got, c.dense)
		}
		if !c.dense && len(tab.index) != c.fits+1 {
			t.Fatalf("n=%d: %d index entries after %d peers", c.n, len(tab.index), c.fits+1)
		}
		for k := range c.fits + 1 {
			if got := tab.Peek(peer(k)).a; got != int64(k+1) {
				t.Fatalf("n=%d: peer %d reads %d after crowding, want %d", c.n, peer(k), got, k+1)
			}
		}
		if got := tab.Peek(peer(c.fits + 1)); got != (entry{}) {
			t.Fatalf("n=%d: untouched peer reads %+v", c.n, got)
		}
	}
}

// Peek and Find never populate: a sparse table that was only peeked holds
// nothing.
func TestPeekDoesNotPopulate(t *testing.T) {
	tab := New[entry](1 << 16)
	for i := 0; i < 1000; i++ {
		if got := tab.Peek(i); got != (entry{}) || tab.Find(i) != nil {
			t.Fatalf("peek %d: %+v", i, got)
		}
	}
	if tab.Len() != 0 || tab.slots != nil {
		t.Fatalf("peeks materialized %d entries", tab.Len())
	}
	tab.Get(5).a = 2
	if tab.Len() != 1 || tab.Peek(5).a != 2 {
		t.Fatalf("after one Get: %d entries, peer 5 = %+v", tab.Len(), tab.Peek(5))
	}
}

// Up to scanMax slots are found by linear scan (no index is built); beyond,
// the rank-sorted index takes over, whether the slots were added as a group
// or one touch at a time.
func TestScanThenIndex(t *testing.T) {
	for _, k := range []int{1, 3, scanMax, scanMax + 1, 3 * scanMax} {
		for _, added := range []bool{true, false} {
			ranks := make([]int, k)
			for i := range ranks {
				ranks[i] = 3*((i*7)%k) + 1 // scattered, unsorted
			}
			var tab Table[entry]
			if added {
				tab.Add(ranks...)
			}
			for i, r := range ranks {
				tab.Get(r).a = int64(i)
			}
			if indexed := len(tab.index) > 0; indexed != (k > scanMax) {
				t.Fatalf("k=%d added=%t: index built = %t", k, added, indexed)
			}
			for i := range k {
				r, e := tab.At(i)
				if r != 3*((i*7)%k)+1 || e.a != int64(i) || tab.Find(r) != e {
					t.Fatalf("k=%d added=%t: slot %d holds rank %d %+v", k, added, i, r, *e)
				}
				if tab.Find(r+1) != nil {
					t.Fatalf("k=%d added=%t: Find(%d) invented a slot", k, added, r+1)
				}
			}
		}
	}
}

// A table reused through Reset and Fill allocates nothing once its heap
// array is large enough: what lets a recycled epoch cost no allocation.
func TestResetAndFillReuse(t *testing.T) {
	var tab Table[entry]
	tab.Fill(64)
	group := make([]int, 20)
	for i := range group {
		group[i] = 60 - 3*i
	}
	allocs := testing.AllocsPerRun(100, func() {
		tab.Reset()
		tab.Add(group...)
		for _, r := range group {
			tab.Get(r).a++
		}
		tab.Reset()
		tab.Get(9).b = 4
		tab.Get(40).b = 5
		tab.Fill(64)
		if _, e := tab.At(40); e.b != 5 || tab.Len() != 64 {
			t.Fatalf("after Fill: slot 40 = %+v, %d slots", *e, tab.Len())
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per reuse, want 0", allocs)
	}
}

// fuzzWorlds are the tables FuzzPeerTable's first byte picks: an epoch
// table (the zero value, 0 here), dense world tables at and below
// smallWorld, sparse ones that turn dense when crowded, and one above
// denseMax that builds its index instead.
var fuzzWorlds = []int{0, 4, smallWorld, smallWorld + 1, 200, denseMax*2 + 1}

// FuzzPeerTable drives random Get/Find/Peek/At/Add/Fill/Reset sequences
// across the scan limit, the Fill transition and a world table's crowding
// point, checking every value and At's insertion order against a map
// model. World tables take Get/Find/Peek/At only, with ranks below n.
func FuzzPeerTable(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 5, 1, 5, 2, 7, 3, 0, 4, 0})
	f.Add([]byte{0, 0, 1, 0, 9, 0, 40, 0, 2, 5, 3, 3, 1, 6, 0, 0, 7})
	seq := make([]byte, 0, 96)
	for i := range 40 {
		seq = append(seq, 0, byte(i*37))
	}
	f.Add(append([]byte{0}, append(seq, 5, 0, 3, 39, 6, 0, 2, 200)...))
	for w := 1; w < len(fuzzWorlds); w++ { // 40 peers crowd every sparse world table
		f.Add(append([]byte{byte(w)}, append(seq, 1, 3, 2, 255, 3, 4, 0, 37)...))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := fuzzWorlds[int(ops[0])%len(fuzzWorlds)]
		ops = ops[1:]
		var tab Table[entry]
		if n > 0 {
			tab = New[entry](n)
		}
		startDense := tab.dense != nil
		model := map[int]int64{}
		var order []int
		filled := false
		for len(ops) >= 2 {
			op, arg := ops[0]%8, int(ops[1])
			ops = ops[2:]
			if n > 0 {
				arg %= n
				if op > 3 && op < 7 { // Add, Fill, Reset are for epoch tables
					continue
				}
			}
			switch op {
			case 0, 7: // Get
				if filled {
					if len(order) == 0 {
						continue
					}
					arg %= len(order)
				}
				e := tab.Get(arg)
				v, ok := model[arg]
				if !ok {
					order = append(order, arg)
				}
				if e.a != v {
					t.Fatalf("Get(%d) = %d, model %d", arg, e.a, v)
				}
				e.a = v + int64(op) + 1
				model[arg] = e.a
			case 1: // Find
				e := tab.Find(arg)
				v, ok := model[arg]
				if e != nil && e.a != v || e == nil && ok || !ok && e != nil && tab.dense == nil {
					t.Fatalf("Find(%d) = %v, model %d (present %t)", arg, e, v, ok)
				}
			case 2: // Peek
				if got := tab.Peek(arg).a; got != model[arg] {
					t.Fatalf("Peek(%d) = %d, model %d", arg, got, model[arg])
				}
			case 3: // At
				if len(order) == 0 || tab.dense != nil {
					continue
				}
				k := arg % len(order)
				if r, e := tab.At(k); r != order[k] || e.a != model[r] {
					t.Fatalf("At(%d) = rank %d a=%d, model rank %d a=%d", k, r, e.a, order[k], model[order[k]])
				}
			case 4: // Add
				if _, held := model[arg]; !filled && !held {
					tab.Add(arg)
					model[arg] = 0
					order = append(order, arg)
				}
			case 5: // Fill
				if filled {
					continue
				}
				n := arg % 64
				for r := range model {
					n = max(n, r+1)
				}
				tab.Fill(n)
				order, filled = order[:0], true
				for r := range n {
					order = append(order, r)
					model[r] += 0
				}
			case 6: // Reset
				tab.Reset()
				clear(model)
				order, filled = order[:0], false
			}
			switch {
			case tab.dense == nil && tab.Len() != len(order):
				t.Fatalf("Len() = %d, model %d", tab.Len(), len(order))
			case tab.dense != nil && !startDense && (n > denseMax || len(order) <= tab.scanLimit()):
				t.Fatalf("n=%d: dense after %d peers (scan limit %d)", n, len(order), tab.scanLimit())
			case tab.dense == nil && n > 0 && len(tab.index) > 0 != (len(order) > tab.scanLimit()):
				t.Fatalf("n=%d: %d index entries for %d peers (scan limit %d)", n, len(tab.index), len(order), tab.scanLimit())
			}
		}
	})
}
