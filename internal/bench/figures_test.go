package bench

import (
	"testing"
)

// Shape assertions for every reproduced figure: we do not pin absolute
// numbers (they belong to the calibration), but the qualitative results
// the paper reports — who wins, by roughly what factor, where the
// mitigation appears — must hold. Each test prints its table with -v for
// comparison against the paper.

const iters = 2

// within asserts a <= b*factor (a "roughly equal or better" relation).
func within(t *testing.T, what string, a, b, factor float64) {
	t.Helper()
	if a > b*factor {
		t.Fatalf("%s: %v exceeds %v x %v", what, a, b, factor)
	}
}

func TestFig2Shape(t *testing.T) {
	tb := Fig2LatePost(iters)
	t.Log("\n" + tb.String())
	nb := SeriesNewNB.String()
	bl := SeriesNew.String()
	// The access epoch inherits the late post in every series (~delay+transfer).
	if tb.Get("access epoch", nb) < 1300 || tb.Get("access epoch", bl) < 1300 {
		t.Fatal("access epoch should absorb the 1000us late post in all series")
	}
	// The two-sided activity escapes the delay only with nonblocking epochs.
	if tb.Get("two-sided", nb) > 500 {
		t.Fatal("nonblocking: two-sided activity should overlap the late post")
	}
	if tb.Get("two-sided", bl) < 1500 {
		t.Fatal("blocking: two-sided activity should be serialized after the epoch")
	}
	// Cumulative: nonblocking == first activity only.
	within(t, "nb cumulative vs access epoch", tb.Get("cumulative", nb), tb.Get("access epoch", nb), 1.05)
	if tb.Get("cumulative", bl) <= tb.Get("cumulative", nb) {
		t.Fatal("blocking cumulative should exceed nonblocking")
	}
}

func TestFig3Shape(t *testing.T) {
	tb := Fig3LateComplete(iters, []int64{4, 1 << 20})
	t.Log("\n" + tb.String())
	nb := SeriesNewNB.String()
	for _, series := range []string{SeriesMVAPICH.String(), SeriesNew.String()} {
		if tb.Get("4B", series) < 900 {
			t.Fatalf("%s should propagate the origin's 1000us work to the target", series)
		}
	}
	if tb.Get("4B", nb) > 100 {
		t.Fatal("nonblocking target should wait only for the 4B transfer")
	}
	if v := tb.Get("1MB", nb); v < 300 || v > 450 {
		t.Fatalf("nonblocking 1MB target epoch %v us, want ~transfer time", v)
	}
}

func TestFig4Shape(t *testing.T) {
	tb := Fig4EarlyFence(iters)
	t.Log("\n" + tb.String())
	nb := SeriesNewNB.String()
	// Nonblocking: work overlaps the epoch -> cumulative ~ max(work, transfer).
	within(t, "nb cumulative", tb.Get("1MB", nb), 1100, 1.0)
	// Blocking: serialized -> cumulative ~ work + transfer.
	if tb.Get("1MB", SeriesNew.String()) < 1250 {
		t.Fatal("blocking fence should serialize epoch and work")
	}
}

func TestFig5Shape(t *testing.T) {
	tb := Fig5WaitAtFence(iters, []int64{4, 1 << 20})
	t.Log("\n" + tb.String())
	nb := SeriesNewNB.String()
	if tb.Get("4B", nb) > 100 {
		t.Fatal("nonblocking fence should shield the target from the origin's late fence")
	}
	if tb.Get("4B", SeriesMVAPICH.String()) < 900 || tb.Get("4B", SeriesNew.String()) < 900 {
		t.Fatal("blocking fences should propagate the origin's delay")
	}
}

func TestFig6Shape(t *testing.T) {
	tb := Fig6LateUnlock(iters)
	t.Log("\n" + tb.String())
	mv, bl, nb := SeriesMVAPICH.String(), SeriesNew.String(), SeriesNewNB.String()
	// MVAPICH lazy locks: O1 immune, but O0 has no overlap (work+transfer).
	if tb.Get("second lock (O1)", mv) > 500 {
		t.Fatal("lazy locks should keep O1 immune to Late Unlock")
	}
	if tb.Get("first lock (O0)", mv) < 1250 {
		t.Fatal("lazy locks deny O0 any overlap")
	}
	// New blocking: O0 overlaps (epoch ~ work) but O1 suffers Late Unlock.
	within(t, "new O0 overlap", tb.Get("first lock (O0)", bl), 1100, 1.0)
	if tb.Get("second lock (O1)", bl) < 1100 {
		t.Fatal("new blocking should expose O1 to Late Unlock")
	}
	// New nonblocking: both fixed; O1 ~ two transfers, no 1000us delay.
	if v := tb.Get("second lock (O1)", nb); v > 900 {
		t.Fatalf("nonblocking O1 epoch %v us should avoid the holder's work time", v)
	}
}

// TestModesShape pins the headline three-way mode comparison (FigModes,
// the Late Unlock pattern across vanilla / new / flush windows): flush mode
// must overlap like the nonblocking series on the holder's side and beat
// blocking Late Unlock on the waiter's side, while paying a visible (but
// bounded) conditional-acquire cost relative to the queued-lock design.
func TestModesShape(t *testing.T) {
	tb := FigModes(iters)
	t.Log("\n" + tb.String())
	fl, nb, bl := SeriesFlush.String(), SeriesNewNB.String(), SeriesNew.String()
	// Holder: the IUnlock release chases the data, so the 1000us of work
	// overlaps the transfer and the section costs ~work.
	within(t, "flush O0 overlap", tb.Get("first lock (O0)", fl), 1100, 1.0)
	// Waiter: no 1000us propagation (the blocking series suffers it) ...
	if v := tb.Get("second lock (O1)", fl); v > 1000 {
		t.Fatalf("flush O1 section %v us should avoid the holder's work time", v)
	}
	if tb.Get("second lock (O1)", bl) < 1100 {
		t.Fatal("new blocking should still expose O1 to Late Unlock")
	}
	// ... but the conditional-acquire retries cost something relative to the
	// queued lock, bounded by the backoff ceiling.
	if fl, nbv := tb.Get("second lock (O1)", fl), tb.Get("second lock (O1)", nb); fl < nbv {
		t.Fatalf("flush O1 (%v) unexpectedly beats the queued nonblocking lock (%v); retry cost vanished", fl, nbv)
	}
	// Modes is Fig 6 plus the Flush column: one rank body, so the shared
	// series agree exactly.
	fig6 := Fig6LateUnlock(iters)
	for _, row := range fig6.Rows {
		for _, col := range fig6.Cols {
			if a, b := tb.Get(row, col), fig6.Get(row, col); a != b {
				t.Errorf("(%s, %s): Modes %v != Fig 6 %v", row, col, a, b)
			}
		}
	}
}

// The two table builders fill cells by index, and the column form refuses
// a column that does not have one value per row.
func TestGridFillsByIndex(t *testing.T) {
	rows, cols := []string{"r0", "r1", "r2"}, []string{"c0", "c1"}
	byCell := grid("g", "", "row", rows, cols, func(r, c int) float64 { return float64(10*r + c) })
	byCol := gridColumns("g", "", "row", rows, cols, func(c int) []float64 {
		return []float64{float64(c), float64(10 + c), float64(20 + c)}
	})
	for r, row := range rows {
		for c, col := range cols {
			if want := float64(10*r + c); byCell.Get(row, col) != want || byCol.Get(row, col) != want {
				t.Errorf("(%s, %s): grid %v, gridColumns %v, want %v", row, col, byCell.Get(row, col), byCol.Get(row, col), want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("gridColumns accepted a two-value column for three rows")
		}
	}()
	gridColumns("g", "", "row", rows, cols, func(int) []float64 { return []float64{1, 2} })
}

func testFlagFigure(t *testing.T, tb interface {
	Get(row, col string) float64
	String() string
}, victimRow string) {
	t.Helper()
	t.Log("\n" + tb.String())
	off := tb.Get(victimRow, flagOff)
	on := tb.Get(victimRow, flagOn)
	if off < 1500 {
		t.Fatalf("%s with flag off should inherit the transitive delay (got %v us)", victimRow, off)
	}
	if on > 500 {
		t.Fatalf("%s with flag on should escape the delay (got %v us)", victimRow, on)
	}
}

func TestFig7Shape(t *testing.T)  { testFlagFigure(t, Fig7AAARGats(iters), "target T1") }
func TestFig9Shape(t *testing.T)  { testFlagFigure(t, Fig9AAER(iters), "target P1") }
func TestFig10Shape(t *testing.T) { testFlagFigure(t, Fig10EAER(iters), "origin O1") }
func TestFig11Shape(t *testing.T) { testFlagFigure(t, Fig11EAAR(iters), "origin P1") }

func TestFig8Shape(t *testing.T) {
	tb := Fig8AAARLock(iters)
	t.Log("\n" + tb.String())
	off := tb.Get("O1 cumulative", flagOff)
	on := tb.Get("O1 cumulative", flagOn)
	// With the flag on, both epochs finish in about the first epoch's
	// latency; off, the second is serialized behind it.
	if on >= off {
		t.Fatal("A_A_A_R should reduce O1's cumulative latency")
	}
	if off-on < 250 {
		t.Fatalf("A_A_A_R saving too small: off=%v on=%v", off, on)
	}
}

func TestFig12Shape(t *testing.T) {
	p := DefaultTxnParams()
	p.EpochsPerRank = 48
	sizes := []int{16, 32}
	tb := Fig12Transactions(sizes, p)
	t.Log("\n" + tb.String())
	for _, n := range []string{"16", "32"} {
		aaar := tb.Get(n, TxnNewNBAAAR.String())
		nb := tb.Get(n, TxnNewNB.String())
		bl := tb.Get(n, TxnNew.String())
		if aaar <= nb {
			t.Fatalf("n=%s: A_A_A_R (%v) should beat plain nonblocking (%v)", n, aaar, nb)
		}
		if nb < bl*0.98 {
			t.Fatalf("n=%s: nonblocking (%v) should not lose to blocking (%v)", n, nb, bl)
		}
	}
	// Throughput grows with job size.
	if tb.Get("32", TxnNewNBAAAR.String()) <= tb.Get("16", TxnNewNBAAAR.String()) {
		t.Fatal("throughput should scale with job size")
	}
}

func TestFig12CreditCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("512-rank run in -short mode")
	}
	p := DefaultTxnParams()
	p.EpochsPerRank = 24
	aaar := RunTxn(512, TxnNewNBAAAR, p)
	bl := RunTxn(512, TxnNew, p)
	// The paper's flow-control ceiling collapses the advantage to a few %.
	if aaar > bl*1.15 {
		t.Fatalf("at 512 ranks the credit ceiling should cap the A_A_A_R gain: aaar=%v blocking=%v", aaar, bl)
	}
}

func TestFig13Shape(t *testing.T) {
	p := LUParams{M: 768, FlopNs: 20}
	sizes := []int{8, 16, 32}
	tt, ct := Fig13LU(sizes, p)
	t.Log("\n" + tt.String())
	t.Log("\n" + ct.String())
	nb, bl, mv := SeriesNewNB.String(), SeriesNew.String(), SeriesMVAPICH.String()
	for _, n := range []string{"8", "16"} {
		if tt.Get(n, nb) >= tt.Get(n, bl) {
			t.Fatalf("n=%s: nonblocking LU (%v s) should beat blocking (%v s)", n, tt.Get(n, nb), tt.Get(n, bl))
		}
		if tt.Get(n, bl) > tt.Get(n, mv)*1.02 {
			t.Fatalf("n=%s: New (%v) should not lose to MVAPICH (%v)", n, tt.Get(n, bl), tt.Get(n, mv))
		}
	}
	// The nonblocking advantage shrinks as job size grows (communication
	// percentage rises and Late Complete shrinks).
	gain8 := tt.Get("8", bl) / tt.Get("8", nb)
	gain32 := tt.Get("32", bl) / tt.Get("32", nb)
	if gain32 > gain8 {
		t.Fatalf("LU gain should shrink with job size: gain8=%.2f gain32=%.2f", gain8, gain32)
	}
	// Communication percentage rises with job size for every series.
	for _, s := range []string{mv, bl, nb} {
		if ct.Get("32", s) <= ct.Get("8", s) {
			t.Fatalf("series %s: comm%% should rise with job size", s)
		}
	}
}

func TestOverlapShape(t *testing.T) {
	tb := OverlapTable(iters)
	t.Log("\n" + tb.String())
	mv, bl := SeriesMVAPICH.String(), SeriesNew.String()
	if tb.Get("lock put 1MB", mv) > 5 {
		t.Fatal("MVAPICH lazy locks should provide no lock-epoch overlap")
	}
	if tb.Get("lock put 1MB", bl) < 90 {
		t.Fatal("the new design should provide full lock-epoch overlap")
	}
	if tb.Get("GATS put 1MB", mv) < 90 {
		t.Fatal("MVAPICH should overlap inside GATS epochs (Section VIII-A)")
	}
	// Large accumulates lose overlap in every implementation.
	if tb.Get("lock acc 64KB", bl) > 60 {
		t.Fatal(">8KB accumulates should lose most overlap (rendezvous)")
	}
	if tb.Get("lock acc 4KB", bl) < 70 {
		t.Fatal("small accumulates should retain overlap")
	}
}

func TestLatencyParityShape(t *testing.T) {
	tb := LatencyParity(iters, 1<<20)
	t.Log("\n" + tb.String())
	for _, kind := range []string{"GATS", "fence", "lock"} {
		mv := tb.Get(kind, SeriesMVAPICH.String())
		nb := tb.Get(kind, SeriesNewNB.String())
		if nb > mv*1.1 || mv > nb*1.1 {
			t.Fatalf("%s: latency parity violated: MVAPICH %v vs NB %v", kind, mv, nb)
		}
	}
}
