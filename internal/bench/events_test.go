package bench

import (
	"testing"

	"repro/internal/core"
)

// TestPinnedEventCounts pins the kernel events (mpi.World.Events, summed over
// a figure's worlds) of three cells that exercise the NIC pipeline on the
// crossbar (Fig 3, a 64-rank transaction cell) and under the fat-tree (the
// 512-rank scale cell). Every figure is deterministic, so the counts are
// exact: a change that schedules fewer events for the same results lowers
// them here, and a change that adds events shows up as a failure. A NIC that
// scheduled a wire-end and a credit-return event per packet read 9 090,
// 124 715 and 875 605.
func TestPinnedEventCounts(t *testing.T) {
	var fig3 uint64
	for _, s := range AllSeries {
		for _, size := range SweepSizes {
			fig3 += lateComplete(s, 10, size, core.WinOptions{}, 0).run(true).World.Events()
		}
	}
	txn := txnCell(64, Config(), TxnNewNB, DefaultTxnParams(), true).World.Events()
	var scale uint64
	for _, s := range ScaleSeries {
		scale += scaleCellMode(512, s, 1, true).World.Events()
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"Fig 3 at iters 10", fig3, 6270},
		{"RunTxn(64, TxnNewNB)", txn, 80075},
		{"FigScaleRanks(512, 1)", scale, 829349},
	} {
		t.Logf("%s: %d events", c.name, c.got)
		if c.got != c.want {
			t.Errorf("%s: %d kernel events, pinned at %d", c.name, c.got, c.want)
		}
	}
}
