package core

import "repro/internal/sim"

// WindowStats aggregates a window's lifetime activity; useful for
// application-level reporting and for the benchmark harness.
type WindowStats struct {
	EpochsOpened    int64
	EpochsCompleted int64
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

// FaultStats aggregates the window's fault-handling activity: the
// fabric-level adversary and reliability counters of the owning rank
// (retransmits, dedup drops, flap holds — rank-wide, since links are shared
// by all of the rank's windows) plus this window's epoch-level abort
// counters. All zero on a fault-free run.
type FaultStats struct {
	// Fabric adversary and go-back-N layer (per rank; see fabric.RelStats).
	Retransmits  int64
	PacketsLost  int64 // copies the adversary dropped on the wire
	DupDrops     int64 // duplicate deliveries discarded by the receiver
	GapDrops     int64 // out-of-order deliveries discarded (go-back-N)
	CorruptDrops int64 // checksum failures discarded by the receiver
	Held         int64 // departures a flap window held back

	// Epoch-level error handling (per window; see errors.go).
	EpochsAborted int64
	Timeouts      int64
}

// CongestionStats aggregates the interconnect's congestion activity: link
// arbitration and flow-control counters from the topology model
// (internal/topo). Fabric-wide — links are shared by every rank and window
// of the simulation — and all zero when the interconnect is the default
// contention-free crossbar.
type CongestionStats struct {
	QueuedTime   sim.Time // total time packets waited in link queues
	BusyTime     sim.Time // total wire occupancy across all links
	CreditStalls int64    // head-of-line episodes stalled on link credits
	Forwarded    int64    // link-level packet transmissions (hops)
	Delivered    int64    // packets that completed their route
	MaxQueue     int      // deepest link queue observed
}

// CongestionStats returns a snapshot of the interconnect's congestion
// counters (zero when no topology is modeled).
func (w *Window) CongestionStats() CongestionStats {
	s := w.eng.rt.world.Net.TopoSummary()
	return CongestionStats{
		QueuedTime:   s.QueuedTime,
		BusyTime:     s.BusyTime,
		CreditStalls: s.CreditStalls,
		Forwarded:    s.Forwarded,
		Delivered:    s.Delivered,
		MaxQueue:     s.MaxQueue,
	}
}

// FaultStats returns a snapshot of the window's fault counters.
func (w *Window) FaultStats() FaultStats {
	fs := w.fstats
	rs := w.eng.rt.world.Net.RelStats(w.rank.ID)
	fs.Retransmits = rs.Retransmits
	fs.PacketsLost = rs.Drops
	fs.DupDrops = rs.DupDrops
	fs.GapDrops = rs.GapDrops
	fs.CorruptDrops = rs.CorruptDrops
	fs.Held = rs.Delayed
	return fs
}

// Free collectively tears the window down: it waits for every local epoch
// to complete, synchronizes all ranks, and detaches the window from the
// engine. Using a freed window panics. Mirrors MPI_WIN_FREE's "all RMA on
// the window must be complete" requirement.
func (w *Window) Free() {
	if w.freed {
		w.raisef("window freed twice")
	}
	w.Quiesce()
	w.rank.Barrier()
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
