package core

// WindowStats aggregates a window's lifetime activity; useful for
// application-level reporting and for the benchmark harness. EpochsAborted
// and Timeouts stay zero on a fault-free run; the rank's fabric-level
// reliability counters are fabric.Network.RelStats.
type WindowStats struct {
	EpochsOpened    int64
	EpochsCompleted int64
	EpochsAborted   int64 // epochs closed by an abort (see errors.go)
	Timeouts        int64 // epochs that hit WinOptions.EpochTimeout
	OpsIssued       int64
	BytesOut        int64 // payload bytes of outbound puts/accumulates
	LockGrants      int64 // grants served by the local lock agent
	SignalsSent     int64 // counter-replica writes sent (internode grants/dones + user signals)
	SignalsRecv     int64 // replica writes merged (newer than the local replica)
	SignalsStale    int64 // replica writes discarded as duplicates or reorders
}

// Stats returns a snapshot of the window's counters.
func (w *Window) Stats() WindowStats {
	s := w.stats
	s.LockGrants = w.agent.Grants
	return s
}

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
