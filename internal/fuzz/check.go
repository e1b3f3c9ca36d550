package fuzz

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/prog"
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
	var problems []string
	bad := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Final memory must match the sequential oracle.
	want := Expected(p)
	for wi := range p.Windows {
		for r := 0; r < p.NRanks; r++ {
			got := res.Mems[wi][r]
			for off := range got {
				if got[off] != want[wi][r][off] {
					bad("memory mismatch win %d rank %d off %d: got %#02x want %#02x",
						wi, r, off, got[off], want[wi][r][off])
					break // one mismatch per (win, rank) is enough
				}
			}
		}
	}

	problems = append(problems, checkFetched(p, mode, res)...)

	// Epoch accounting, lock-agent end state and the ω-counter algebra.
	// Signal conservation (counter-signal transport): every replica write
	// sent is eventually merged or discarded as stale — nothing vanishes,
	// nothing is double-counted. A rank whose windows are all on the GATS
	// transport must have recorded no signal traffic at all.
	var sent, recv, stale int64
	for r := 0; r < p.NRanks; r++ {
		c := res.Counters.Row(r)
		if c[epochsOpened] != c[epochsCompleted] {
			bad("rank %d: %d epochs opened but %d completed", r, c[epochsOpened], c[epochsCompleted])
		}
		if mode == core.ModeFlush && c[epochsOpened] != 0 {
			bad("rank %d: flush-mode windows opened %d epochs", r, c[epochsOpened])
		}
		sent, recv, stale = sent+c[signalsSent], recv+c[signalsRecv], stale+c[signalsStale]
		onSignal := slices.ContainsFunc(res.Wins[r], func(w *core.Window) bool { return w.Transport() != core.TransportGATS })
		if !onSignal && c[signalsSent]|c[signalsRecv]|c[signalsStale] != 0 {
			bad("rank %d: GATS transport recorded signal traffic (sent=%d recv=%d stale=%d)",
				r, c[signalsSent], c[signalsRecv], c[signalsStale])
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

// checkFetched pairs every RunResult.Fetched entry with its operation and
// checks what the generation discipline makes exact without reasoning about
// order. A CAS returns 0: its slot is single-use and zero-initialized. A byte
// a Get or a NoOp GetAccumulate returns from beyond the accumulate region is
// 0 or the one value a write can leave there (writtenByte). Results from the
// accumulate region are not checked.
func checkFetched(p *Program, mode core.Mode, res *RunResult) []string {
	var problems []string
	cas := casWrites(p)
	for r := 0; r < p.NRanks; r++ {
		n := pairFetched(p, mode, r, res.Fetched[r], func(c prog.Call, o *OpSpec, b []byte) {
			switch {
			case o.Kind == OpCAS:
				if v := binary.LittleEndian.Uint64(b); v != 0 {
					problems = append(problems, fmt.Sprintf(
						"rank %d: CAS win %d target %d off %d returned %#x, want 0 (single-use slot)",
						r, c.Win, o.Target, o.Off, v))
				}
			case o.Kind == OpGet || o.Kind == OpGetAcc && o.NoOp:
				name := "Get"
				if o.Kind == OpGetAcc {
					name = "NoOp GetAccumulate"
				}
				for i, v := range b {
					off := o.Off + int64(i)
					if w, ok := writtenByte(p, cas, int(c.Win), o.Target, off); ok && v != 0 && v != w {
						problems = append(problems, fmt.Sprintf(
							"rank %d: %s win %d target %d off %d fetched %#02x at off %d, want 0 or %#02x",
							r, name, c.Win, o.Target, o.Off, v, off, w))
						break // one bad byte per operation is enough
					}
				}
			}
		})
		if n != len(res.Fetched[r]) {
			problems = append(problems, fmt.Sprintf("rank %d: %d fetched results for %d fetching operations", r, len(res.Fetched[r]), n))
		}
	}
	return problems
}

// pairFetched walks rank r's program in order and calls f with each
// fetching operation and its entry of got, as far as got reaches. It
// returns the number of fetching operations.
func pairFetched(p *Program, mode core.Mode, r int, got [][]byte, f func(prog.Call, *OpSpec, []byte)) int {
	n := 0
	layout(p, mode, r, func(c prog.Call, o *OpSpec) {
		if o == nil || o.Kind == OpPut || o.Kind == OpAcc {
			return
		}
		if n < len(got) {
			f(c, o, got[n])
		}
		n++
	})
	return n
}

// casWrite is the one write a CAS slot can see: the swap value of the
// matching CAS that owns the slot, at its target (-1: none).
type casWrite struct {
	target int
	swap   uint64
}

// casWrites indexes every slot's casWrite by window, owner and slot.
func casWrites(p *Program) []casWrite {
	cw := make([]casWrite, len(p.Windows)*p.NRanks*casSlotArea/8)
	for i := range cw {
		cw[i].target = -1
	}
	add := func(wi int, ops []OpSpec) {
		for _, o := range ops {
			if o.Kind == OpCAS && o.Match {
				cw[casSlot(p, wi, o.Off)] = casWrite{o.Target, casSwap(o.Val)}
			}
		}
	}
	for _, rd := range p.Rounds {
		for _, ph := range rd.PhaseOps {
			for _, ops := range ph {
				add(rd.Win, ops)
			}
		}
		for _, ops := range rd.Ops {
			add(rd.Win, ops)
		}
	}
	return cw
}

// casSlot is the casWrites index of the CAS slot holding absolute offset off
// of window wi.
func casSlot(p *Program, wi int, off int64) int {
	ws := p.Windows[wi]
	rel := off - ws.AccSize
	return (wi*p.NRanks+int(rel/ws.SliceSz))*casSlotArea/8 + int(rel%ws.SliceSz/8)
}

// writtenByte is the one non-zero value any write of p can leave at offset
// off of window wi on rank target: putByteAt of the slice's owner in a put
// area, the owning CAS's swap byte in a CAS slot it targets (0 if it targets
// another rank). ok is false in the accumulate region, which holds a
// combination of writes.
func writtenByte(p *Program, cas []casWrite, wi, target int, off int64) (v byte, ok bool) {
	ws := p.Windows[wi]
	if off < ws.AccSize {
		return 0, false
	}
	owner, rel := int((off-ws.AccSize)/ws.SliceSz), (off-ws.AccSize)%ws.SliceSz
	if rel >= casSlotArea {
		return putByteAt(wi, owner, off), true
	}
	if w := cas[casSlot(p, wi, off)]; w.target == target {
		return byte(w.swap >> (8 * (rel % 8))), true
	}
	return 0, true
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
