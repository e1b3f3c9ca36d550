package fuzz

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The core counters the oracle reads from a run's metrics set.
var (
	epochsOpened, epochsCompleted = metrics.Lookup("core.epochs_opened"), metrics.Lookup("core.epochs_completed")
	signalsSent, signalsRecv      = metrics.Lookup("core.signals_sent"), metrics.Lookup("core.signals_recv")
	signalsStale                  = metrics.Lookup("core.signals_stale")
)

// Verify checks every invariant of a finished run and returns the list of
// violations (empty means the run is clean).
func Verify(p *Program, mode core.Mode, res *RunResult) []string {
	if res.Err != nil {
		return []string{fmt.Sprintf("simulation error: %v", res.Err)}
	}
	// Every access against the oracle's rules (oracle.go).
	problems := checkAccesses(p, mode, res)
	bad := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Epoch accounting, lock-agent end state and the ω-counter algebra.
	// Signal conservation (counter-signal transport): every replica write
	// sent is eventually merged or discarded as stale — nothing vanishes,
	// nothing is double-counted. A rank whose windows are all on the GATS
	// transport must have recorded no signal traffic at all.
	var sent, recv, stale int64
	for r := 0; r < p.NRanks; r++ {
		c := res.Counters.Row(r)
		if c.Get(epochsOpened) != c.Get(epochsCompleted) {
			bad("rank %d: %d epochs opened but %d completed", r, c.Get(epochsOpened), c.Get(epochsCompleted))
		}
		if mode == core.ModeFlush && c.Get(epochsOpened) != 0 {
			bad("rank %d: flush-mode windows opened %d epochs", r, c.Get(epochsOpened))
		}
		sent, recv, stale = sent+c.Get(signalsSent), recv+c.Get(signalsRecv), stale+c.Get(signalsStale)
		onSignal := slices.ContainsFunc(res.Wins[r], func(w *core.Window) bool { return w.Transport() != core.TransportGATS })
		if !onSignal && c.Get(signalsSent)|c.Get(signalsRecv)|c.Get(signalsStale) != 0 {
			bad("rank %d: GATS transport recorded signal traffic (sent=%d recv=%d stale=%d)",
				r, c.Get(signalsSent), c.Get(signalsRecv), c.Get(signalsStale))
		}
		for wi, win := range res.Wins[r] {
			if n := win.PendingEpochs(); n != 0 {
				bad("rank %d win %d: %d epochs still pending after quiescence", r, wi, n)
			}
			excl, shared, queued := win.LockAgentState()
			if excl != -1 || shared != 0 || queued != 0 {
				bad("rank %d win %d: lock agent not clean at end: excl=%d shared=%d queued=%d",
					r, wi, excl, shared, queued)
			}
			if mode == core.ModeFlush {
				// The scalable-lock protocol must be fully unwound: every
				// hosted counter back to zero, nothing held, nothing in
				// flight.
				fs := win.FlushState()
				if fs.GlobalX != 0 || fs.GlobalS != 0 || fs.LocalX || fs.LocalS != 0 ||
					fs.Held != 0 || fs.Pending != 0 {
					bad("rank %d win %d: flush-lock protocol not clean at end: %+v", r, wi, fs)
				}
			}
		}
	}
	if sent != recv+stale {
		bad("signal conservation violated: %d replica writes sent, %d merged + %d stale", sent, recv, stale)
	}

	for wi := range p.Windows {
		for l := 0; l < p.NRanks; l++ {
			for r := 0; r < p.NRanks; r++ {
				lc := res.Wins[l][wi].PeerState(r) // l's counters toward r
				rc := res.Wins[r][wi].PeerState(l) // r's counters toward l
				if lc.A != rc.E {
					bad("win %d: a_%d[%d]=%d but e_%d[%d]=%d (every activated access must match one exposure/grant)",
						wi, l, r, lc.A, r, l, rc.E)
				}
				if lc.G > rc.E {
					bad("win %d: g_%d[%d]=%d exceeds e_%d[%d]=%d (granted more than ever exposed)",
						wi, l, r, lc.G, r, l, rc.E)
				}
				if rc.DoneRecv > lc.A {
					bad("win %d: rank %d received done id %d from %d, but only %d accesses were activated",
						wi, r, rc.DoneRecv, l, lc.A)
				}
			}
		}
	}

	// Every span's latency split, and serial-activation legality.
	problems = append(problems, checkSpans(p, mode, res.Spans)...)
	return problems
}

// checkSpans holds every span to the conservation law of its latency split
// (no part negative, the parts summing to Complete − Open to the
// nanosecond) and its stamps to causal order: the last op to settle landed
// no earlier than its issue, and a completed lock epoch was granted between
// its activation and its completion. Under the paper's design it also
// checks every activation against an independent restatement of the
// Section VI rules: each earlier-opened epoch of the window had completed,
// or had activated AND the reorder flags permit the pair (fence and
// lock-all epochs never reorder). The window's ordinals order activations
// and completions exactly, also within one nanosecond; an aborted epoch
// never completed.
func checkSpans(p *Program, mode core.Mode, spans []trace.Span) []string {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	for i := range spans {
		s := &spans[i]
		var sum sim.Time
		for part, d := range s.Parts {
			if d < 0 {
				bad("span %+v: %s part is negative", s, trace.Part(part))
			}
			sum += d
		}
		if s.Complete != trace.Unset && sum != s.Complete-s.Open {
			bad("span %+v: parts sum to %d ns, complete − open is %d", s, sum, s.Complete-s.Open)
		}
		if s.Land < s.Issue {
			bad("span %+v: the last op landed before it was issued", s)
		}
		lock := s.Class == trace.ClassLock || s.Class == trace.ClassLockAll
		if lock && s.Complete != trace.Unset && !s.Aborted && !(s.Activate <= s.Grant && s.Grant <= s.Complete) {
			bad("span %+v: lock epoch completed without a grant after its activation", s)
		}
		if mode != core.ModeNew || s.Activate == trace.Unset {
			continue
		}
		info := p.Windows[int(s.Win)].Info
		for j := range spans[:i] { // spans opened earlier
			prev := &spans[j]
			switch {
			case prev.Rank != s.Rank || prev.Win != s.Win:
			case prev.Complete != trace.Unset && !prev.Aborted && prev.EndOrd < s.ActOrd:
			case prev.Activate == trace.Unset || prev.ActOrd > s.ActOrd:
				bad("rank %d win %d: %s epoch %d activated before earlier %s epoch %d (queue order violated)",
					s.Rank, s.Win, s.Class, s.Epoch, prev.Class, prev.Epoch)
			case !legalReorder(info, prev.Class, s.Class):
				bad("rank %d win %d: %s epoch %d activated while %s epoch %d is active, but the info flags (%+v) forbid it",
					s.Rank, s.Win, s.Class, s.Epoch, prev.Class, prev.Epoch, info)
			}
		}
	}
	return problems
}

// legalReorder restates the Section VI-B predicate from the paper's text,
// deliberately independent of core's implementation.
func legalReorder(info core.Info, prev, next trace.EpochClass) bool {
	if prev == trace.ClassFence || prev == trace.ClassLockAll || next == trace.ClassFence || next == trace.ClassLockAll {
		return false
	}
	switch prevAccess, nextAccess := prev != trace.ClassExposure, next != trace.ClassExposure; {
	case prevAccess && nextAccess:
		return info.AAAR
	case !prevAccess && nextAccess:
		return info.AAER
	case prevAccess && !nextAccess:
		return info.EAAR
	default:
		return info.EAER
	}
}
