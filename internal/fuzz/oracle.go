package fuzz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The oracle holds every access to the package comment's location rule, in
// an order completion allows (accesses, memory.location), and the run to
// Section VI-C (races). Its arithmetic is independent of internal/core's.

// An access is one operation of the program: the op, its window and origin,
// the bytes it returned if it fetches, its epoch's span and Open, and the
// Complete by which it is in (or was read from) its target's memory.
type access struct {
	o                  *OpSpec
	win, origin, after int  // after: the accesses the order search places first
	early, late        bool // set by memory.check
	got                []byte
	sp                 *trace.Span
	open, settle       sim.Time
}

var noSpan = trace.Span{Open: trace.Unset, Complete: trace.Unset} // of an op whose epoch has none

func (a *access) covers(loc, sz int64) bool { return a.o.Off < loc+sz && a.o.Off+a.o.Size > loc }

// observed is what a returned of the sz-byte location at loc it covers,
// and the mask of the bytes it read (none if it fetches nothing).
func (a *access) observed(loc, sz int64) (v, mask uint64) {
	if a.got == nil {
		return 0, 0
	}
	lo, hi := max(loc, a.o.Off), min(loc+sz, a.o.Off+a.o.Size)
	return le(a.got[lo-a.o.Off:hi-a.o.Off]) << (8 * (lo - loc)), ^uint64(0) >> (64 - 8*(hi-lo)) << (8 * (lo - loc))
}

// A hold is a lock epoch: its span and its lock call.
type hold struct {
	sp *trace.Span
	c  prog.Call
}

// accesses lists every operation of p, pairing each rank's fetches with its
// RunResult.Fetched entries (reporting a count that differs) and its
// epoch-opening calls with its spans in program order, then reports races.
// A write settles at its epoch's Complete, as a fetch does, unless that
// Complete may come before it is in target memory: an epoch opened by
// Start on a ModeNew window of the counter-signal transport, whose puts and
// accumulates settle at the wire (core's Window.settlesAtWire).
func accesses(p *Program, mode core.Mode, res *RunResult) (all []access, problems []string) {
	all, holds := make([]access, 0, p.OpCount()), make([]hold, 0, len(res.Spans))
	for r := 0; r < p.NRanks; r++ {
		got, n, next, sp, start := res.Fetched[r], 0, 0, &noSpan, false
		layout(p, mode, r, func(c prog.Call, o *OpSpec) {
			// k is a blocking form, which its I-form follows (layout); AssertNoSucceed opens no epoch.
			if k := c.Kind - 1 + c.Kind%2; o == nil && (k == prog.Fence && !c.Flag || k == prog.Start || k == prog.Post || k == prog.Lock || k == prog.LockAll) {
				start = k == prog.Start
				for sp = &noSpan; sp == &noSpan && next < len(res.Spans); next++ {
					if res.Spans[next].Rank == r {
						if sp = &res.Spans[next]; k == prog.Lock {
							holds = append(holds, hold{sp, c})
						}
					}
				}
			}
			if o == nil {
				return
			}
			a := access{o: o, win: int(c.Win), origin: r, sp: sp, open: sp.Open, settle: math.MaxInt64}
			if o.Kind != OpPut && o.Kind != OpAcc {
				if n < len(got) {
					a.got = got[n]
				}
				n++
			}
			if sp.Complete != trace.Unset && !sp.Aborted && (a.got != nil || !start || mode != core.ModeNew || res.Wins == nil ||
				res.Wins[r][c.Win].Transport() == core.TransportGATS) {
				a.settle = sp.Complete
			}
			all = append(all, a)
		})
		if n != len(got) {
			problems = append(problems, fmt.Sprintf("rank %d: %d fetched results for %d fetching operations", r, len(got), n))
		}
	}
	return all, races(all, holds, problems)
}

// races reports the first of two breaches of the synchronization: two
// operations of one origin on one window (all lists them together) that
// conflict in epochs whose [ActOrd, EndOrd] intervals overlap (Section
// VI-C), or two lock epochs of one target, not both shared, that held the
// lock at once, each over its [Grant, Complete] at least.
func races(all []access, holds []hold, problems []string) []string {
	for i := range all {
		for j := i + 1; j < len(all) && all[j].origin == all[i].origin; j++ {
			if a, b := &all[i], &all[j]; a.win == b.win && a.sp != b.sp && a.sp.ActOrd < b.sp.EndOrd && b.sp.ActOrd < a.sp.EndOrd && a.o.conflicts(*b.o) {
				return append(problems, fmt.Sprintf("rank %d win %d: %s epoch %d and %s epoch %d progressed concurrently and conflict at rank %d (Section VI-C)",
					a.origin, a.win, a.sp.Class, a.sp.Epoch, b.sp.Class, b.sp.Epoch, a.o.Target))
			}
		}
	}
	for i, a := range holds {
		for _, b := range holds[i+1:] {
			if a.c.Win == b.c.Win && a.c.Peer == b.c.Peer && (a.c.Flag || b.c.Flag) && a.sp.Grant < b.sp.Complete && b.sp.Grant < a.sp.Complete {
				return append(problems, fmt.Sprintf("win %d rank %d: rank %d's lock epoch %d and rank %d's lock epoch %d held it at once, not both shared",
					a.c.Win, a.c.Peer, a.sp.Rank, a.sp.Epoch, b.sp.Rank, b.sp.Epoch))
			}
		}
	}
	return problems
}

// memory holds one window of one rank to the rule: the accesses that target
// it, the fold of their writes, and the order search's scratch.
type memory struct {
	ws     WindowSpec
	wi, t  int
	accs   []access
	fold   []byte
	w      []*access // the writes and reads the order search places
	failed []uint64  // the search's dead ends, one bit per set of w
}

// checkAccesses holds every access of res to the oracle's rules.
func checkAccesses(p *Program, mode core.Mode, res *RunResult) []string {
	all, problems := accesses(p, mode, res)
	m := memory{accs: make([]access, 0, len(all))}
	for wi, ws := range p.Windows {
		m.fold = make([]byte, ws.TotalSize(p.NRanks))
		for t := 0; t < p.NRanks; t++ {
			m.ws, m.wi, m.t, m.accs = ws, wi, t, m.accs[:0]
			for i := range all {
				if all[i].win == wi && all[i].o.Target == t {
					m.accs = append(m.accs, all[i])
				}
			}
			problems = m.check(res.Mems[wi][t], problems)
		}
	}
	return problems
}

// check compares the final memory got with the fold of every write, then
// holds each location a fetch or a read observes to the rule; one failing
// location per window and rank is enough. A fetch is early if a write over
// its bytes settled before its epoch opened, late if one opened after.
func (m *memory) check(got []byte, problems []string) []string {
	clear(m.fold)
	for i := range m.accs {
		a := &m.accs[i]
		for j := range m.accs {
			if b := &m.accs[j]; a.got != nil && b.o.writes() && a.covers(b.o.Off, b.o.Size) {
				a.early, a.late = a.early || b.settle < a.open, a.late || a.settle < b.open
			}
		}
		for loc := a.o.Off; a.o.writes() && loc < a.o.Off+a.o.Size; loc += m.size(loc) {
			if v := m.combine(loc, le(m.fold[loc:loc+m.size(loc)]), m.operand(a, loc)); m.size(loc) == 8 {
				binary.LittleEndian.PutUint64(m.fold[loc:], v)
			} else {
				m.fold[loc] = byte(v)
			}
		}
	}
	if !bytes.Equal(got, m.fold) {
		off := 0
		for got[off] == m.fold[off] {
			off++
		}
		problems = append(problems, fmt.Sprintf("memory mismatch win %d rank %d off %d: got %#02x want %#02x",
			m.wi, m.t, off, got[off], m.fold[off]))
	}
	for i := range m.accs {
		for a, loc := &m.accs[i], m.accs[i].o.Off-m.accs[i].o.Off%m.size(m.accs[i].o.Off); a.got != nil && loc < a.o.Off+a.o.Size; loc += m.size(loc) {
			if p := m.location(loc); p != "" {
				return append(problems, p)
			}
		}
	}
	return problems
}

// location holds the location at loc to the rule; "" means it holds. The
// search orders its writes and its reads (which write nothing) together; a
// read of the first (last) state needs no place unless early (late).
func (m *memory) location(loc int64) string {
	sz, search := m.size(loc), false
	final := le(m.fold[loc : loc+sz])
	m.w = m.w[:0]
	for i := range m.accs {
		if a := &m.accs[i]; a.covers(loc, sz) {
			if v, mask := a.observed(loc, sz); a.o.writes() || !(v == 0 && !a.early) && !(v == final&mask && !a.late) {
				a.after, m.w, search = 0, append(m.w, a), search || a.got != nil
			}
		}
	}
	switch {
	case !search:
		return ""
	case len(m.w) > 20: // the generator stays far below 2^20 sets
		return fmt.Sprintf("win %d rank %d off %d: %d writes and reads exceed the order search's bound", m.wi, m.t, loc, len(m.w))
	}
	for _, a := range m.w {
		for j, b := range m.w {
			if b.settle < a.open {
				a.after |= 1 << j
			}
		}
	}
	m.failed = append(m.failed[:0], make([]uint64, (1<<len(m.w)+63)/64)...)
	if m.order(loc, sz, 0, 0) {
		return ""
	}
	return fmt.Sprintf("win %d rank %d off %d: no order of its writes that completion allows explains what was fetched there (final %#x)",
		m.wi, m.t, loc, final)
}

// order reports whether the accesses outside the set s can follow the state
// st of s, each after its after set and each fetch returning the state
// before its own write. Dead ends are recorded, so each set is searched once.
func (m *memory) order(loc, sz int64, s int, st uint64) bool {
	if s == 1<<len(m.w)-1 {
		return true
	}
	if m.failed[s/64]&(1<<(s%64)) != 0 {
		return false
	}
	m.failed[s/64] |= 1 << (s % 64)
	for i, a := range m.w {
		if v, mask := a.observed(loc, sz); s&(1<<i) != 0 || a.after&^s != 0 || st&mask != v {
			continue
		}
		if !a.o.writes() { // a read that fits changes no state, so placing it now loses no order
			return m.order(loc, sz, s|1<<i, st)
		}
		if m.order(loc, sz, s|1<<i, m.combine(loc, st, m.operand(a, loc))) {
			return true
		}
	}
	return false
}

// size is the length of the location holding offset off; the regions, their
// elements and the CAS slots all align to their own size.
func (m *memory) size(off int64) int64 {
	switch {
	case off < m.ws.AccSize:
		return int64(m.ws.DT.Size())
	case (off-m.ws.AccSize)%m.ws.SliceSz < casSlotArea:
		return 8
	}
	return 1
}

// operand is the value a combines into the location at loc.
func (m *memory) operand(a *access, loc int64) uint64 {
	switch a.o.Kind {
	case OpPut:
		return uint64(putByteAt(m.wi, a.origin, loc))
	case OpCAS:
		return casSwap(a.o.Val)
	}
	return mix64(a.o.Val+uint64((loc-a.o.Off)/int64(m.ws.DT.Size()))) & m.mask()
}

// combine is the state of the location at loc after v is written over s. A
// put byte and a CAS slot each see one written value, so or-ing it in is
// writing it.
func (m *memory) combine(loc int64, s, v uint64) uint64 {
	if loc >= m.ws.AccSize {
		return s | v
	}
	less := s < v
	if m.ws.DT == core.TInt64 {
		less = int64(s) < int64(v)
	}
	switch op := m.ws.Op; {
	case op == core.OpBor:
		s |= v
	case op == core.OpSum:
		s += v
	case op == core.OpProd:
		s *= v
	case op == core.OpBand:
		s &= v
	case op == core.OpBxor:
		s ^= v
	case op == core.OpMax && less, op == core.OpMin && !less:
		s = v
	case op != core.OpMax && op != core.OpMin:
		panic("fuzz: oracle does not model this operator")
	}
	return s & m.mask()
}

// mask keeps the bits of one accumulate element.
func (m *memory) mask() uint64 { return ^uint64(0) >> (64 - 8*m.ws.DT.Size()) }

// le reads up to 8 bytes as a little-endian value.
func le(b []byte) (v uint64) {
	if len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}
