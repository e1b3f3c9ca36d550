package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzz"
)

// Section VI-C: with the reorder flags, "the RMA activities of concurrently
// progressed epochs involve strictly disjoint memory regions". The fuzz
// oracle holds every run to that rule; these tests run real windows, two
// nonblocking lock epochs of rank 0 on rank 1 under AAAR, and check what the
// oracle reports about them.

// conflictRun executes rank 0's ops as two consecutive nonblocking lock
// epochs on rank 1 (exclusive unless shared) and returns Verify's report.
func conflictRun(t *testing.T, shared bool, first, second fuzz.OpSpec) string {
	t.Helper()
	ws := fuzz.WindowSpec{AccSize: 64, SliceSz: 64, Op: core.OpSum, DT: core.TUint64,
		Info: core.Info{AAAR: true}, Passive: true}
	p := &fuzz.Program{Seed: 1, NRanks: 2, ProcsPerNode: 1, Windows: []fuzz.WindowSpec{ws}}
	for _, o := range []fuzz.OpSpec{first, second} {
		p.Rounds = append(p.Rounds, fuzz.Round{Kind: fuzz.RLock,
			LockTarget: []int{1, -1}, LockShared: []bool{shared, false},
			Ops: [][]fuzz.OpSpec{{o}, nil}, Nonblocking: []bool{true, false}, Compute: make([]int64, 2)})
	}
	res := fuzz.Execute(p, core.ModeNew)
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	return strings.Join(fuzz.Verify(p, core.ModeNew, res), "\n")
}

// sliceOff is an offset in rank 0's slice of the window, past its CAS slots.
const sliceOff = 64 + 32

func TestConflictCheckerCatchesOverlap(t *testing.T) {
	put := fuzz.OpSpec{Kind: fuzz.OpPut, Target: 1, Off: sliceOff, Size: 1}
	got := conflictRun(t, false, put, put)
	if !strings.Contains(got, "progressed concurrently and conflict at rank 1") {
		t.Fatalf("two concurrently pending epochs writing one byte: oracle said %q, want a Section VI-C conflict", got)
	}
}

func TestConflictCheckerAllowsDisjoint(t *testing.T) {
	a := fuzz.OpSpec{Kind: fuzz.OpPut, Target: 1, Off: sliceOff, Size: 1}
	b := fuzz.OpSpec{Kind: fuzz.OpPut, Target: 1, Off: sliceOff + 8, Size: 1}
	if got := conflictRun(t, false, a, b); got != "" {
		t.Fatalf("disjoint puts in concurrent epochs: oracle said %q", got)
	}
}

func TestConflictCheckerAllowsConcurrentReads(t *testing.T) {
	get := fuzz.OpSpec{Kind: fuzz.OpGet, Target: 1, Off: sliceOff, Size: 8}
	if got := conflictRun(t, true, get, get); got != "" {
		t.Fatalf("read-read on one range in concurrent epochs: oracle said %q", got)
	}
}
