package core

import (
	"repro/internal/mpi"
)

// Flush family. Blocking flushes are deliberately NOT implemented in terms
// of their nonblocking equivalents: they "simply invoke the RMA progress
// engine until some epoch-closing conditions are met" (Section VII-C).
// Nonblocking flushes use the age-stamping design: every RMA call object
// carries a monotonically increasing age; an IFlush request is stamped with
// the age of the call that immediately precedes it and a completion counter
// holding the number of older incomplete calls in scope; each completing
// call decrements the counters of the flush requests it is older than.

// flushReq is one outstanding nonblocking flush: an application IFlush's
// request, or the flush-mode unlock (lo) it continues, with no request.
type flushReq struct {
	req     *mpi.Request
	lo      *lockOp
	target  int // -1 = all targets
	local   bool
	stamp   int64
	counter int
}

// complete ends the flush successfully: its request completes, or the
// unlock it continues sends its release atomic.
func (f *flushReq) complete() {
	if f.lo == nil {
		f.req.Complete()
		return
	}
	if !f.lo.finished {
		f.lo.fm.sendAtom(f.lo, f.lo.release)
	}
	f.lo.fm.w.rank.Wake.Fire()
}

// fail ends the flush, and the unlock it continues, with err.
func (f *flushReq) fail(err error) {
	if f.lo == nil {
		f.req.Fail(err)
		return
	}
	f.lo.fail(err)
	f.lo.fm.w.rank.Wake.Fire()
}

// settleFlushes lets op completion events decrement matching outstanding
// flush counters. localEvent distinguishes local (wire-done) from remote
// (fulfilled) completion.
func (w *Window) settleFlushes(o *rmaOp, localEvent bool) {
	if !localEvent {
		w.unlinkLive(o)
	}
	if len(w.flushes) == 0 {
		return
	}
	kept := w.flushes[:0]
	for _, f := range w.flushes {
		if f.local == localEvent && o.age <= f.stamp && (f.target == -1 || f.target == o.target) {
			f.counter--
			if f.counter == 0 {
				f.complete()
				continue
			}
		}
		kept = append(kept, f)
	}
	w.flushes = kept
}

// requirePassive panics unless an open passive-target epoch covers t
// (t == -1 accepts any passive epoch), mirroring MPI's restriction of the
// flush family to passive target.
func (newMode) requirePassive(w *Window, t int) {
	for _, ep := range w.openAccess {
		if ep.kind != EpochLock && ep.kind != EpochLockAll {
			continue
		}
		if t == -1 || ep.coversTarget(t) {
			return
		}
	}
	w.raisef("flush outside a passive-target epoch (target %d)", t)
}

// newFlush builds a stamped flush request over the currently incomplete
// RMA calls in scope.
//
// Scope invariant: addOp links EVERY RMA call into the live list at record
// time — including ops recorded into a deferred (not-yet-activated) passive
// epoch that sit unissued in its recorded-op queues. A flush stamped while
// such an epoch waits for its grant therefore counts those ops and stays
// pending until they issue and land; only the aborts unlink ops from the
// live list without completing them (and they fail the flushes too).
func (w *Window) newFlush(target int, local bool) *mpi.Request {
	if !w.rank.ChargeCall() {
		return nil
	}
	if w.err != nil {
		// Poisoned window: the abort already failed and cleared w.flushes
		// and emptied the live list, so stamping here would fabricate an
		// instantly "successful" flush over transfers that never happened (or trip the
		// no-passive-epoch panic if the abort closed the epoch). Fail the
		// request with the window's error instead.
		return mpi.NewFailedRequest(w.rank, w.err)
	}
	w.impl.requirePassive(w, target)
	req := mpi.NewRequest(w.rank)
	w.addFlush(flushReq{req: req, target: target, local: local})
	return req
}

// addFlush stamps f with the age of the newest call and counts the older
// incomplete calls in its scope; with none, f completes at once.
func (w *Window) addFlush(f flushReq) {
	f.stamp = w.opAge
	for o := w.liveHead; o != nil; o = o.nextLive {
		if o.age <= f.stamp && o.inFlush(f.target, f.local) {
			f.counter++
		}
	}
	if f.counter == 0 {
		f.complete()
		return
	}
	w.flushes = append(w.flushes, f)
}

// inFlush reports whether a flush toward target (-1: all) waits for o.
func (o *rmaOp) inFlush(target int, local bool) bool {
	if target != -1 && o.target != target {
		return false
	}
	if local {
		return !o.localDone
	}
	return !o.remoteDone
}

// IFlush completes, nonblockingly, all RMA calls so far issued toward
// target in the surrounding passive epoch; new RMA calls may be issued
// before it completes.
func (w *Window) IFlush(target int) *mpi.Request {
	return w.newFlush(w.checkTarget(target, "IFlush target"), false)
}

// IFlushLocal is the local-completion variant of IFlush.
func (w *Window) IFlushLocal(target int) *mpi.Request {
	return w.newFlush(w.checkTarget(target, "IFlushLocal target"), true)
}

// IFlushAll flushes toward every target of the window, nonblockingly.
func (w *Window) IFlushAll() *mpi.Request { return w.newFlush(-1, false) }

// IFlushLocalAll is the local-completion variant of IFlushAll.
func (w *Window) IFlushLocalAll() *mpi.Request { return w.newFlush(-1, true) }

// Stages of a blocking flush (callState.stage; zero is a fresh call).
const (
	flushGrants = iota + 1 // vanilla: forcing the lazy epoch c.ep, waiting for its grants
	flushOps               // waiting for the in-scope ops
)

// flushWait drives the engine until every in-scope op reaches the wanted
// completion level; vanilla windows first force lazy epochs forward. The
// repeat of a pending call resumes the wait it had reached.
func (w *Window) flushWait(target int, local bool) {
	ep, stage := w.eng.call.resume()
	if stage == 0 {
		if !w.rank.ChargeCall() {
			return
		}
		if w.err != nil {
			w.fail(w.err) // poisoned window: surface the abort, not an epoch panic
			return
		}
		w.impl.requirePassive(w, target)
	}
	if stage != flushOps && !w.impl.forceIssue(w, target, ep) {
		return
	}
	if !w.rank.WaitUntil("flush", func() bool {
		if w.err != nil {
			return true // aborted window: unwind instead of waiting forever
		}
		for o := w.liveHead; o != nil; o = o.nextLive {
			if o.inFlush(target, local) {
				return false
			}
		}
		return true
	}) {
		w.eng.call.stage = flushOps
		return
	}
	if w.err != nil {
		w.fail(w.err)
	}
}

// Flush blocks until all RMA calls issued toward target are complete at
// the target.
func (w *Window) Flush(target int) { w.flushWait(w.checkTarget(target, "Flush target"), false) }

// FlushLocal blocks until all RMA calls issued toward target are complete
// locally (origin buffers reusable).
func (w *Window) FlushLocal(target int) {
	w.flushWait(w.checkTarget(target, "FlushLocal target"), true)
}

// FlushAll blocks until all RMA calls to every target are complete there.
func (w *Window) FlushAll() { w.flushWait(-1, false) }

// FlushLocalAll blocks until all RMA calls are locally complete.
func (w *Window) FlushLocalAll() { w.flushWait(-1, true) }
