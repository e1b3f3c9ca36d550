package peertab

import "testing"

type entry struct{ a, b int64 }

// A dense and a sparse table given the same touch sequence hold the same
// values, for a zero and a non-zero init alike.
func TestDenseSparseAgree(t *testing.T) {
	for _, init := range []entry{{}, {a: 7, b: -1}} {
		dense, sparse := New(denseMax, init), New(denseMax+1, init)
		if dense.dense == nil || sparse.sparse == nil {
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
				t.Fatalf("init %+v, peer %d: dense %+v, sparse %+v", init, i, d, s)
			}
		}
		if got, want := dense.Peek(3), (entry{init.a + 0 + 2 + 7, init.b + 3}); got != want {
			t.Fatalf("init %+v, peer 3: %+v, want %+v", init, got, want)
		}
		if got := sparse.Peek(1); got != init {
			t.Fatalf("untouched sparse peer reads %+v, want init %+v", got, init)
		}
	}
}

// Get pointers stay valid across later Gets that open new slabs, and the
// same peer always resolves to the same entry.
func TestSparsePointersStable(t *testing.T) {
	tab := New(1<<16, entry{b: 9})
	const peers = 5*chunkLen + 3
	ptrs := make([]*entry, peers)
	for i := range ptrs {
		ptrs[i] = tab.Get(i * 101)
		ptrs[i].a = int64(i)
	}
	for i, p := range ptrs {
		if q := tab.Get(i * 101); q != p {
			t.Fatalf("peer %d moved: %p then %p", i*101, p, q)
		}
		if want := (entry{int64(i), 9}); *p != want {
			t.Fatalf("peer %d reads %+v through its first pointer, want %+v", i*101, *p, want)
		}
	}
}

// Peek never populates: a sparse table that was only peeked holds nothing.
func TestPeekDoesNotPopulate(t *testing.T) {
	tab := New(1<<16, entry{a: 1})
	for i := 0; i < 1000; i++ {
		if got := tab.Peek(i); got != (entry{a: 1}) {
			t.Fatalf("peek %d: %+v", i, got)
		}
	}
	if len(tab.sparse) != 0 || tab.chunk != nil {
		t.Fatalf("peeks materialized %d entries (slab %v)", len(tab.sparse), tab.chunk != nil)
	}
	tab.Get(5).a = 2
	if len(tab.sparse) != 1 || tab.Peek(5).a != 2 {
		t.Fatalf("after one Get: %d entries, peer 5 = %+v", len(tab.sparse), tab.Peek(5))
	}
}
