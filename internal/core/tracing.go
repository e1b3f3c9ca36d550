package core

import (
	"repro/internal/trace"
)

// Tracing hooks: when a trace.Recorder is attached to the Runtime, the
// engine emits epoch-lifecycle and arrival events that internal/trace can
// analyze into the paper's inefficiency patterns. With no recorder
// attached the hooks cost one nil check.

// SetTracer attaches a recorder capturing events from every rank. The
// recorder's per-rank buckets are sized for the world first, which makes
// recording safe whether the world runs serial or sharded.
func (rt *Runtime) SetTracer(rec *trace.Recorder) {
	if rec != nil && rec.Len() == 0 {
		rec.SetRanks(rt.world.Size())
	}
	rt.tracer = rec
}

// Local aliases so emission sites stay terse.
const (
	traceOpen      = trace.EpochOpen
	traceActivate  = trace.EpochActivate
	traceClose     = trace.EpochCloseApp
	traceComplete  = trace.EpochComplete
	traceGrant     = trace.GrantRecv
	traceDone      = trace.DoneRecv
	traceDataIn    = trace.DataIn
	traceLockGrant = trace.LockGranted
)

// emitEpoch records an epoch-lifecycle event.
func (w *Window) emitEpoch(kind trace.Kind, ep *Epoch) {
	rec := w.eng.rt.tracer
	if rec == nil {
		return
	}
	rec.Record(trace.Event{
		T:     w.rank.Now(),
		Rank:  w.rank.ID,
		Win:   w.id,
		Epoch: ep.seq,
		Class: trace.EpochClass(ep.kind.String()),
		Kind:  kind,
		Peer:  -1,
	})
}

// emitArrival records a window-level arrival event (grant, done, data).
func (w *Window) emitArrival(kind trace.Kind, peer int, size int64) {
	rec := w.eng.rt.tracer
	if rec == nil {
		return
	}
	rec.Record(trace.Event{
		T:     w.rank.Now(),
		Rank:  w.rank.ID,
		Win:   w.id,
		Epoch: -1,
		Kind:  kind,
		Peer:  peer,
		Size:  size,
	})
}
