package peertab

import "testing"

type entry struct{ a, b int64 }

// A dense and a sparse table given the same touch sequence hold the same
// values, and the sparse one enumerates its peers in first-touch order.
func TestDenseSparseAgree(t *testing.T) {
	dense, sparse := New[entry](denseMax), New[entry](denseMax+1)
	if dense.dense == nil || sparse.dense != nil {
		t.Fatalf("denseMax=%d is not the dense/sparse boundary", denseMax)
	}
	touches := []int{3, 2047, 3, 0, 511, 2047, 64, 3}
	for step, i := range touches {
		for _, tab := range []*Table[entry]{&dense, &sparse} {
			e := tab.Get(i)
			e.a += int64(step)
			e.b++
		}
	}
	for i := 0; i < denseMax; i++ {
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
	for k, want := range []int{3, 2047, 0, 511, 64} {
		if r, e := sparse.At(k); r != want || *e != sparse.Peek(want) {
			t.Fatalf("sparse slot %d holds rank %d (%+v), want rank %d", k, r, *e, want)
		}
	}
	if sparse.Len() != 5 {
		t.Fatalf("sparse Len() = %d, want 5", sparse.Len())
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

// FuzzPeerTable drives random Get/Find/Peek/At/Add/Fill/Reset sequences
// across the scan limit and the Fill transition, checking every value and
// At's insertion order against a map model.
func FuzzPeerTable(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 1, 5, 2, 7, 3, 0, 4, 0})
	f.Add([]byte{0, 1, 0, 9, 0, 40, 0, 2, 5, 3, 3, 1, 6, 0, 0, 7})
	seq := make([]byte, 0, 96)
	for i := range 40 {
		seq = append(seq, 0, byte(i*37))
	}
	f.Add(append(seq, 5, 0, 3, 39, 6, 0, 2, 200))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[entry]
		model := map[int]int64{}
		var order []int
		filled := false
		for len(ops) >= 2 {
			op, arg := ops[0]%8, int(ops[1])
			ops = ops[2:]
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
				if v, ok := model[arg]; ok != (e != nil) || ok && e.a != v {
					t.Fatalf("Find(%d) = %v, model %d (present %t)", arg, e, v, ok)
				}
			case 2: // Peek
				if got := tab.Peek(arg).a; got != model[arg] {
					t.Fatalf("Peek(%d) = %d, model %d", arg, got, model[arg])
				}
			case 3: // At
				if len(order) == 0 {
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
			if tab.Len() != len(order) {
				t.Fatalf("Len() = %d, model %d", tab.Len(), len(order))
			}
		}
	})
}
