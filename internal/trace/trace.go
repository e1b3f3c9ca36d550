// Package trace records RMA epoch lifecycle events and quantifies the
// paper's inefficiency patterns from them, in the spirit of the MPI-2 RMA
// pattern analyses the paper builds on (Kühnal et al. and Hermanns et al.,
// the paper's refs [3] and [4]): Late Post, Early Wait, Late Complete,
// Wait at Fence and Late Unlock are measured as wait-time decompositions
// over recorded epoch timelines.
package trace

import (
	"fmt"

	"repro/internal/sim"
)

// Kind classifies a trace event.
type Kind int

// Trace event kinds.
const (
	// Epoch lifecycle (Section VI's application/internal lifetimes).
	EpochOpen Kind = iota
	EpochActivate
	EpochCloseApp
	EpochComplete
	// Window-level arrivals.
	GrantRecv // exposure/lock grant notification arrived from Peer
	DoneRecv  // done packet arrived from Peer
	DataIn    // an RMA transfer landed in this window from Peer
	// Lock-agent service.
	LockGranted // the local agent granted its lock to Peer
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case EpochOpen:
		return "open"
	case EpochActivate:
		return "activate"
	case EpochCloseApp:
		return "close"
	case EpochComplete:
		return "complete"
	case GrantRecv:
		return "grant"
	case DoneRecv:
		return "done"
	case DataIn:
		return "data-in"
	case LockGranted:
		return "lock-granted"
	}
	return "unknown"
}

// EpochClass mirrors the synchronization family of the epoch (kept as a
// string to avoid importing internal/core).
type EpochClass string

// Epoch classes as reported by internal/core.
const (
	ClassFence    EpochClass = "fence"
	ClassAccess   EpochClass = "access"
	ClassExposure EpochClass = "exposure"
	ClassLock     EpochClass = "lock"
	ClassLockAll  EpochClass = "lock_all"
)

// Event is one recorded occurrence.
type Event struct {
	T     sim.Time
	Rank  int
	Win   int64
	Epoch int64 // epoch sequence number within (rank, win); -1 if N/A
	Class EpochClass
	Kind  Kind
	Peer  int   // counterpart rank, -1 if N/A
	Size  int64 // payload size for DataIn
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("t=%dus rank=%d win=%d epoch=%d %s %s peer=%d",
		e.T/sim.Microsecond, e.Rank, e.Win, e.Epoch, e.Class, e.Kind, e.Peer)
}

// Recorder accumulates events in per-rank buckets. Every event is recorded
// from the emitting rank's simulation context: single-threaded on the
// serial kernel, one thread per shard on the sharded kernel. A bucket is
// touched only by its own rank's shard, so recording needs no locking, and
// Events() merges the buckets by (time, rank).
type Recorder struct {
	byRank [][]Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetRanks pre-sizes the recorder for a job of n ranks. Buckets otherwise
// grow on first use, which only a single-threaded recorder may do: one
// attached to a sharded simulation must be sized before any Record.
func (r *Recorder) SetRanks(n int) {
	if r.Len() > 0 {
		panic("trace: SetRanks on a non-empty recorder")
	}
	r.byRank = make([][]Event, n)
}

// Record appends one event.
func (r *Recorder) Record(e Event) {
	for e.Rank >= len(r.byRank) {
		r.byRank = append(r.byRank, nil)
	}
	r.byRank[e.Rank] = append(r.byRank[e.Rank], e)
}

// Events returns all recorded events in virtual-time order, with rank as
// the tie-break at equal times; each bucket is internally in its rank's
// execution order, which the sharded kernel keeps bit-identical to serial,
// so the merged sequence is too.
func (r *Recorder) Events() []Event {
	total := r.Len()
	out := make([]Event, 0, total)
	idx := make([]int, len(r.byRank))
	for len(out) < total {
		best := -1
		for rk, b := range r.byRank {
			if idx[rk] >= len(b) {
				continue
			}
			if best < 0 || b[idx[rk]].T < r.byRank[best][idx[best]].T {
				best = rk
			}
		}
		out = append(out, r.byRank[best][idx[best]])
		idx[best]++
	}
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	n := 0
	for _, b := range r.byRank {
		n += len(b)
	}
	return n
}
