package fuzz

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/prog"
)

// The oracle holds every location to the rule the package comment states.
// Its writes commute, so their fold is the final memory, and an order is
// searched only where a fetch or a read observes the location. Ordering a
// read against the program's synchronization is not checked. The arithmetic
// is written independently of internal/core's combine, to cross-check it.

// An access is one operation of the program: the op, its window and origin,
// and the bytes it returned if it fetches.
type access struct {
	o           *OpSpec
	win, origin int
	got         []byte
}

// writes reports whether a changes its target's memory: every put and
// accumulate but a NoOp one, and a CAS whose compare value matches.
func (a *access) writes() bool {
	return a.o.Kind != OpGet && !a.o.NoOp && (a.o.Kind != OpCAS || a.o.Match)
}

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

// accesses lists every operation of p, pairing each rank's RunResult.Fetched
// entries in program order with its fetching operations, and reports a rank
// whose count of results differs.
func accesses(p *Program, mode core.Mode, res *RunResult) (all []access, problems []string) {
	all = make([]access, 0, p.OpCount())
	for r := 0; r < p.NRanks; r++ {
		got, n := res.Fetched[r], 0
		layout(p, mode, r, func(c prog.Call, o *OpSpec) {
			if o == nil {
				return
			}
			a := access{o: o, win: int(c.Win), origin: r}
			if o.Kind != OpPut && o.Kind != OpAcc {
				if n < len(got) {
					a.got = got[n]
				}
				n++
			}
			all = append(all, a)
		})
		if n != len(got) {
			problems = append(problems, fmt.Sprintf("rank %d: %d fetched results for %d fetching operations", r, len(got), n))
		}
	}
	return all, problems
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

// checkLocations holds every location of every window of res to the rule.
func checkLocations(p *Program, mode core.Mode, res *RunResult) []string {
	all, problems := accesses(p, mode, res)
	m := memory{accs: make([]access, 0, len(all))}
	for wi, ws := range p.Windows {
		m.fold = make([]byte, ws.TotalSize(p.NRanks))
		for t := 0; t < p.NRanks; t++ {
			m.ws, m.wi, m.t, m.accs = ws, wi, t, m.accs[:0]
			for _, a := range all {
				if a.win == wi && a.o.Target == t {
					m.accs = append(m.accs, a)
				}
			}
			problems = m.check(res.Mems[wi][t], problems)
		}
	}
	return problems
}

// check compares the final memory got with the fold of every write, then
// holds each location a fetch or a read observes to the rule; one failing
// location per window and rank is enough.
func (m *memory) check(got []byte, problems []string) []string {
	clear(m.fold)
	for _, a := range m.accs {
		for loc := a.o.Off; a.writes() && loc < a.o.Off+a.o.Size; loc += m.size(loc) {
			if v := m.combine(loc, le(m.fold[loc:loc+m.size(loc)]), m.operand(&a, loc)); m.size(loc) == 8 {
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
	for _, a := range m.accs {
		for loc := a.o.Off - a.o.Off%m.size(a.o.Off); a.got != nil && loc < a.o.Off+a.o.Size; loc += m.size(loc) {
			if p := m.location(loc); p != "" {
				return append(problems, p)
			}
		}
	}
	return problems
}

// location holds the location at loc to the rule; "" means it holds. The
// search orders its writes and its reads (which write nothing) together;
// reads of the first or the last state, on every order, need no place.
func (m *memory) location(loc int64) string {
	sz, search := m.size(loc), false
	final := le(m.fold[loc : loc+sz])
	m.w = m.w[:0]
	for i := range m.accs {
		if a := &m.accs[i]; a.covers(loc, sz) {
			if v, mask := a.observed(loc, sz); a.writes() || v != 0 && v != final&mask {
				m.w, search = append(m.w, a), search || a.got != nil
			}
		}
	}
	switch {
	case !search:
		return ""
	case len(m.w) > 20: // the generator stays far below 2^20 sets
		return fmt.Sprintf("win %d rank %d off %d: %d writes and reads exceed the order search's bound", m.wi, m.t, loc, len(m.w))
	}
	m.failed = append(m.failed[:0], make([]uint64, (1<<len(m.w)+63)/64)...)
	if m.order(loc, sz, 0, 0) {
		return ""
	}
	return fmt.Sprintf("win %d rank %d off %d: no order of its writes explains what was fetched there (final %#x)",
		m.wi, m.t, loc, final)
}

// order reports whether the accesses outside the set s can follow the state
// st of s, each fetch returning the state before its own write. Dead ends
// are recorded, so each set is searched once.
func (m *memory) order(loc, sz int64, s int, st uint64) bool {
	if s == 1<<len(m.w)-1 {
		return true
	}
	if m.failed[s/64]&(1<<(s%64)) != 0 {
		return false
	}
	m.failed[s/64] |= 1 << (s % 64)
	for i, a := range m.w {
		if v, mask := a.observed(loc, sz); s&(1<<i) != 0 || st&mask != v {
			continue
		}
		next := st
		if a.writes() {
			next = m.combine(loc, st, m.operand(a, loc))
		}
		if m.order(loc, sz, s|1<<i, next) {
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
