package core

import (
	"repro/internal/trace"
)

// Tracing: with a trace.Recorder attached to the Runtime every epoch stamps
// one trace.Span in place; without one each stamp site costs a nil check.

// SetTracer attaches a recorder capturing spans from every rank. The
// recorder's per-rank buckets are sized for the world first, which makes
// recording safe whether the world runs serial or sharded.
func (rt *Runtime) SetTracer(rec *trace.Recorder) {
	if rec != nil && rec.Len() == 0 {
		rec.SetRanks(rt.world.Size())
	}
	rt.tracer = rec
}

// span returns ep's span for stamping, or nil when no recorder is attached.
func (ep *Epoch) span() *trace.Span {
	if rec := ep.win.eng.rt.tracer; rec != nil && ep.spanRef > 0 {
		return rec.At(ep.win.rank.ID, ep.spanRef-1)
	}
	return nil
}

// traceOpen opens ep's span at the opening call.
func (w *Window) traceOpen(ep *Epoch) {
	if rec := w.eng.rt.tracer; rec != nil {
		ep.spanRef = 1 + rec.Open(trace.Span{Rank: w.rank.ID, Win: w.id, Epoch: ep.seq,
			Class: trace.EpochClass(ep.kind.String()), Open: w.rank.Now()})
	}
}

// traceClose stamps the closing call.
func (ep *Epoch) traceClose() {
	if s := ep.span(); s != nil {
		s.Close = ep.win.rank.Now()
	}
}

// traceActivate and traceEnd stamp the activation and the completion or
// abort, each with the window's next ordinal.
func (ep *Epoch) traceActivate() {
	if s := ep.span(); s != nil {
		ep.win.traceOrd++
		s.Activate, s.ActOrd = ep.win.rank.Now(), ep.win.traceOrd
	}
}

func (ep *Epoch) traceEnd() {
	if s := ep.span(); s != nil {
		ep.win.traceOrd++
		s.Complete, s.EndOrd, s.Aborted = ep.win.rank.Now(), ep.win.traceOrd, ep.err != nil
	}
}

// traceArrivals stamps Grant on every active epoch whose whole group the ω
// counters now show granted, and Done on every one whose origins' done
// packets are all in, the first time they do. The counters persist what
// arrived before activation, so activation calls it too.
func (w *Window) traceArrivals() {
	if w.eng.rt.tracer == nil {
		return
	}
	for _, ep := range w.epochs {
		if s := ep.span(); s != nil && ep.activated && !ep.completed {
			if s.Grant == trace.Unset && ep.kind.isAccessRole() && ep.allGranted() {
				s.Grant = w.rank.Now()
			}
			if s.Done == trace.Unset && ep.kind.isExposureRole() && ep.donesArrived() {
				s.Done = w.rank.Now()
			}
		}
	}
}

// traceLanded stamps op o's landing at its target's window w: on the op,
// and as Data on the exposure-role epoch that granted it, paired by id (o's
// access id toward this rank is that epoch's exposure id toward src).
func (w *Window) traceLanded(src int, id int64, o *rmaOp) {
	if w.eng.rt.tracer == nil {
		return
	}
	o.landedAt = w.rank.Now()
	for _, ep := range w.epochs {
		sl := ep.peers.Find(src)
		if s := ep.span(); s != nil && ep.kind.isExposureRole() && sl != nil && sl.hasExpose && sl.exposeID == id {
			s.Data = o.landedAt
		}
	}
}
