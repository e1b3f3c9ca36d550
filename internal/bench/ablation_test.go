package bench

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestAblationTriggeredOpsShape(t *testing.T) {
	tb := AblationTriggeredOps(4)
	t.Log("\n" + tb.String())
	trig := tb.Get("triggered ops", "target epoch")
	engOnly := tb.Get("engine-only issue", "target epoch")
	if trig > 500 {
		t.Fatalf("triggered-ops target epoch %v us, want ~transfer time", trig)
	}
	if engOnly < trig+900 {
		t.Fatalf("engine-only issue should inherit the origin's compute: %v vs %v", engOnly, trig)
	}
	// The table must not depend on the iteration count beyond the first
	// iteration's warm-up (a few us, averaged over >= 4 iterations).
	long := AblationTriggeredOps(40)
	for _, row := range tb.Rows {
		if a, b := tb.Get(row, "target epoch"), long.Get(row, "target epoch"); math.Abs(a-b) > 2 {
			t.Errorf("%s: %v us at 4 iterations, %v us at 40", row, a, b)
		}
	}

	// Every engine-only iteration must be the same experiment: the grant
	// lands after the origin's Put call, so the recorded put waits for the
	// origin's engine. Unstaged (targetLag 0), barrier-exit skew lets the
	// grant win on alternate iterations and the samples split ~1000 us apart.
	samples := lateComplete(SeriesNewNB, 8, BigMsg, core.WinOptions{NoTriggeredOps: true}, triggeredOpsLag).run(true).Samples[0][1:]
	lo, hi := samples[0], samples[0]
	for _, s := range samples {
		lo, hi = min(lo, s), max(hi, s)
	}
	if hi-lo > 10*sim.Microsecond {
		t.Fatalf("engine-only steady-state samples spread %v us: %v", us(hi-lo), samples)
	}
}

func TestAblationPipelineDepthShape(t *testing.T) {
	tb := AblationPipelineDepth(8, []int{1, 16}, 32)
	t.Log("\n" + tb.String())
	d1 := tb.Get("1", "throughput")
	d16 := tb.Get("16", "throughput")
	if d16 <= d1 {
		t.Fatalf("deeper pipelines should raise throughput: depth1=%v depth16=%v", d1, d16)
	}
}

func TestAblationCreditsShape(t *testing.T) {
	tb := AblationCredits(8, []int{1, 64}, 32)
	t.Log("\n" + tb.String())
	c1 := tb.Get("1", "throughput")
	c64 := tb.Get("64", "throughput")
	if c64 < c1 {
		t.Fatalf("credit starvation should not beat ample credits: c1=%v c64=%v", c1, c64)
	}
}

func TestAblationCallOverheadRuns(t *testing.T) {
	tb := AblationCallOverhead(4, []int64{0, 800}, 16)
	t.Log("\n" + tb.String())
	for _, row := range []string{"0ns", "800ns"} {
		if tb.Get(row, "New") <= 0 || tb.Get(row, "New nonblocking") <= 0 {
			t.Fatalf("missing ablation cell for %s", row)
		}
	}
}

func TestRunLUSingle(t *testing.T) {
	res := RunLU(4, SeriesNewNB, LUParams{M: 128, FlopNs: 20})
	if res.Total <= 0 || res.CommPct <= 0 || res.CommPct >= 100 {
		t.Fatalf("implausible LU result: %+v", res)
	}
}

func TestOwnedRowsBelow(t *testing.T) {
	// 8 rows on 2 ranks, cyclic: rank 0 owns 0,2,4,6; rank 1 owns 1,3,5,7.
	cases := []struct {
		rank, k, want int
	}{
		{0, 0, 3}, // rows 2,4,6
		{1, 0, 4}, // rows 1,3,5,7
		{0, 5, 1}, // row 6
		{1, 6, 1}, // row 7
		{0, 7, 0},
		{1, 7, 0},
	}
	for _, c := range cases {
		if got := ownedRowsBelow(c.rank, 2, 8, c.k); got != c.want {
			t.Fatalf("ownedRowsBelow(rank=%d, k=%d) = %d, want %d", c.rank, c.k, got, c.want)
		}
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int64]string{4: "4B", 1 << 10: "1KB", 256 << 10: "256KB", 1 << 20: "1MB"}
	for s, want := range cases {
		if got := sizeLabel(s); got != want {
			t.Fatalf("sizeLabel(%d)=%q want %q", s, got, want)
		}
	}
}

func TestSeriesAccessors(t *testing.T) {
	if SeriesMVAPICH.Mode() != 1 || SeriesNew.Mode() != 0 {
		t.Fatal("series->mode mapping wrong")
	}
	if SeriesNewNB.String() != "New nonblocking" || !SeriesNewNB.Nonblocking() {
		t.Fatal("nonblocking series misconfigured")
	}
	for _, s := range AllTxnSeries {
		if s.String() == "unknown" {
			t.Fatal("unnamed txn series")
		}
	}
}
