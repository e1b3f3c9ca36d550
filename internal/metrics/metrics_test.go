package metrics

import (
	"strings"
	"testing"
)

// Declared out of name order, so the snapshot has something to sort.
var (
	tZeta  = Declare("test.zeta")
	tAlpha = Declare("test.alpha")
	tMid   = Declare("test.mid")
)

func TestDeclareTwicePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "test.mid declared twice") {
			t.Fatalf("second Declare of a name: recovered %v, want a panic naming it", r)
		}
	}()
	Declare("test.mid")
}

func TestLookup(t *testing.T) {
	if Lookup("test.alpha") != tAlpha {
		t.Fatal("Lookup does not return the declared ID")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup of an undeclared name did not panic")
		}
	}()
	Lookup("test.undeclared")
}

// Rows are disjoint views; a snapshot merges the rows it is given (every row
// by default) by summing, drops zeros and sorts by name.
func TestSnapshotMergesRowsSorted(t *testing.T) {
	s := NewSet(2)
	s.Row(0)[tZeta] += 3
	s.Row(1)[tZeta] += 4
	s.Row(1)[tAlpha]++
	s.Row(2)[tMid] = 9 // the fabric-wide row
	for _, c := range []struct {
		rows []int
		want string
	}{
		{nil, "test.alpha=1 test.mid=9 test.zeta=7"},
		{[]int{0}, "test.zeta=3"},
		{[]int{1, 2}, "test.alpha=1 test.mid=9 test.zeta=4"},
	} {
		if got := s.Snapshot(c.rows...); got != c.want {
			t.Errorf("Snapshot(%v) = %q, want %q", c.rows, got, c.want)
		}
	}
	if fresh := NewSet(3); fresh.Snapshot() != "" {
		t.Errorf("a fresh set's snapshot = %v, want empty", fresh.Snapshot())
	}
}

// Taking a row and counting into it allocate nothing: the counters sit on
// every hot path of the simulator.
func TestRowAndIncrementAllocateNothing(t *testing.T) {
	s := NewSet(4)
	if n := testing.AllocsPerRun(100, func() {
		r := s.Row(3)
		r[tAlpha]++
		r[tZeta] += 5
	}); n != 0 {
		t.Fatalf("Row and increments: %.1f allocations, want 0", n)
	}
	if got := s.Row(3)[tZeta]; got != 505 {
		t.Fatalf("row 3 zeta = %d after 101 runs of += 5, want 505", got)
	}
}
