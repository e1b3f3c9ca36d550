package core

import "repro/internal/metrics"

// The RMA layer's counters, summed over a rank's windows in its row of the
// world's fabric.Network.Counters; aborts and timeouts stay 0 without faults.
var (
	cEpochsOpened    = metrics.Declare("core.epochs_opened")
	cEpochsCompleted = metrics.Declare("core.epochs_completed")
	cEpochsAborted   = metrics.Declare("core.epochs_aborted") // epochs closed by an abort (see errors.go)
	cTimeouts        = metrics.Declare("core.timeouts")       // epochs that hit WinOptions.EpochTimeout
	cOpsIssued       = metrics.Declare("core.ops_issued")
	cBytesOut        = metrics.Declare("core.bytes_out")     // payload bytes of outbound puts/accumulates
	cLockGrants      = metrics.Declare("core.lock_grants")   // grants served by the local lock agents
	cSignalsSent     = metrics.Declare("core.signals_sent")  // counter-replica writes sent (internode grants/dones + user signals)
	cSignalsRecv     = metrics.Declare("core.signals_recv")  // replica writes merged (newer than the local replica)
	cSignalsStale    = metrics.Declare("core.signals_stale") // replica writes discarded as duplicates or reorders
)

// Free collectively tears the window down: it waits for every local epoch
// to complete, synchronizes all ranks, and detaches the window from the
// engine. Using a freed window panics. Mirrors MPI_WIN_FREE's "all RMA on
// the window must be complete" requirement.
func (w *Window) Free() {
	c := &w.eng.call
	if c.win != w { // not the repeat of a call pending in the barrier
		if w.freed {
			w.raisef("window freed twice")
		}
		if w.Quiesce(); w.rank.Pending() {
			return
		}
	}
	c.win = nil
	if w.rank.Barrier(); w.rank.Pending() {
		c.win = w
		return
	}
	w.freed = true
	delete(w.eng.windows, w.id)
	for i, x := range w.eng.winList {
		if x == w {
			w.eng.winList = append(w.eng.winList[:i], w.eng.winList[i+1:]...)
			break
		}
	}
}

// checkLive panics when the window has been freed.
func (w *Window) checkLive() {
	if w.freed {
		w.raisef("window used after Free")
	}
}
