package fuzz

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// region names the part of window ws that offset x lies in.
func region(ws WindowSpec, x int64) string {
	switch {
	case x < ws.AccSize:
		return "accumulate region"
	case (x-ws.AccSize)%ws.SliceSz < casSlotArea:
		return "CAS slot"
	}
	return "put area"
}

// TestCorruptionReported corrupts one byte of a clean run per shape — a
// result of every kind of fetch, and the final memory — and expects Verify
// to name the corrupted location by window, rank and offset. A byte b
// becomes b^0x80, which no order reaches: a put byte or a CAS slot byte read
// as b != 0 has the states 0 and b only, a CAS must return its slot's 0, and
// an 8-byte accumulate element would need a subset of its writes to fold to
// the flipped value.
func TestCorruptionReported(t *testing.T) {
	certain := func(a *access, ws WindowSpec, x int64, b byte) bool {
		switch {
		case a.o.Kind == OpCAS:
			return true
		case x < ws.AccSize:
			return ws.DT.Size() == 8
		}
		return b != 0 && b != 0x80
	}
	fetches := []struct {
		name  string
		match func(a *access, ws WindowSpec, x int64) bool
	}{
		{"Get of a put area", func(a *access, ws WindowSpec, x int64) bool { return a.o.Kind == OpGet && region(ws, x) == "put area" }},
		{"Get of a CAS slot", func(a *access, ws WindowSpec, x int64) bool { return a.o.Kind == OpGet && region(ws, x) == "CAS slot" }},
		{"Get of the accumulate region", func(a *access, ws WindowSpec, x int64) bool {
			return a.o.Kind == OpGet && region(ws, x) == "accumulate region"
		}},
		{"NoOp GetAccumulate", func(a *access, _ WindowSpec, _ int64) bool { return a.o.NoOp }},
		{"FetchAndOp", func(a *access, _ WindowSpec, _ int64) bool { return a.o.Kind == OpFAO }},
		{"GetAccumulate", func(a *access, _ WindowSpec, _ int64) bool { return a.o.Kind == OpGetAcc && !a.o.NoOp }},
		{"CAS", func(a *access, _ WindowSpec, _ int64) bool { return a.o.Kind == OpCAS }},
	}
	memories := []struct {
		name  string
		match func(ws WindowSpec, x int64, written bool) bool
	}{
		{"a byte nothing writes", func(_ WindowSpec, _ int64, written bool) bool { return !written }},
		{"an accumulate element", func(ws WindowSpec, x int64, written bool) bool { return written && x < ws.AccSize }},
	}
	caught := map[string]bool{}
	expect := func(seed uint64, p *Program, res *RunResult, shape string, wi, rank int, off int64) {
		want := fmt.Sprintf("win %d rank %d off %d:", wi, rank, off)
		if got := strings.Join(Verify(p, core.ModeNew, res), "\n"); !strings.Contains(got, want) {
			t.Errorf("seed %d: corrupted %s at %q, Verify said %q", seed, shape, want, got)
		}
		caught[shape] = true
	}
	for seed := uint64(1); seed <= 100 && len(caught) < len(fetches)+len(memories); seed++ {
		p := Generate(seed)
		res := Execute(p, core.ModeNew)
		if v := Verify(p, core.ModeNew, res); len(v) != 0 {
			t.Fatalf("seed %d is not clean: %v", seed, v)
		}
		all, _ := accesses(p, core.ModeNew, res)
		for _, f := range fetches {
		search:
			for i := range all {
				a, ws := &all[i], p.Windows[all[i].win]
				for j, b := range a.got {
					if x := a.o.Off + int64(j); !caught[f.name] && f.match(a, ws, x) && certain(a, ws, x, b) {
						a.got[j] ^= 0x80
						m := memory{ws: ws}
						expect(seed, p, res, f.name, a.win, a.o.Target, x-x%m.size(x))
						a.got[j] ^= 0x80
						break search
					}
				}
			}
		}
		for _, f := range memories {
		scan:
			for wi, ws := range p.Windows {
				for r, mem := range res.Mems[wi] {
					for x := range mem {
						written := false
						for i := range all {
							a := &all[i]
							written = written || a.win == wi && a.o.Target == r && a.o.writes() && a.covers(int64(x), 1)
						}
						if !caught[f.name] && f.match(ws, int64(x), written) {
							mem[x] ^= 0x80
							expect(seed, p, res, f.name, wi, r, int64(x))
							mem[x] ^= 0x80
							break scan
						}
					}
				}
			}
		}
	}
	for _, f := range fetches {
		if !caught[f.name] {
			t.Errorf("100 seeds held no %s to corrupt", f.name)
		}
	}
	for _, f := range memories {
		if !caught[f.name] {
			t.Errorf("100 seeds held no %s to corrupt", f.name)
		}
	}
}

// history is a hand-built run of one OpSum uint64 window over two ranks: in
// one lock_all round rank r issues ops[r], all toward rank 0, and fetched
// got[r]; rank 0's window ends as mem.
func history(ops [2][]OpSpec, got [2][][]byte, mem []byte) (*Program, *RunResult) {
	ws := WindowSpec{AccSize: 64, SliceSz: 64, Op: core.OpSum, DT: core.TUint64, Passive: true}
	p := &Program{NRanks: 2, Windows: []WindowSpec{ws}, Rounds: []Round{{
		Kind: RLockAll, Member: []bool{true, true}, Ops: ops[:],
		Nonblocking: make([]bool, 2), Compute: make([]int64, 2),
	}}}
	full := make([]byte, ws.TotalSize(2))
	copy(full, mem)
	return p, &RunResult{Mems: [][][]byte{{full, make([]byte, ws.TotalSize(2))}}, Fetched: got[:]}
}

// le64 is v as 8 little-endian bytes.
func le64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// TestOrderRule holds the rule to hand-built histories, with no simulation:
// three that no order of the writes explains are reported at their
// location, and a legal one whose order is not program order is accepted.
func TestOrderRule(t *testing.T) {
	a, b := mix64(1), mix64(2) // the operands of element 0 for Val 1 and Val 2
	fao := func(val uint64) OpSpec { return OpSpec{Kind: OpFAO, Off: 0, Size: 8, Val: val} }
	swap := casSwap(7)
	for _, c := range []struct {
		name  string
		ops   [2][]OpSpec
		got   [2][][]byte
		mem   []byte
		where string // "" for a legal history
	}{
		{
			name:  "two FetchAndOps on one element both return 0",
			ops:   [2][]OpSpec{{fao(1)}, {fao(2)}},
			got:   [2][][]byte{{le64(0)}, {le64(0)}},
			mem:   le64(a + b),
			where: "win 0 rank 0 off 0:",
		},
		{
			name: "a CAS returns its own swap value",
			ops:  [2][]OpSpec{nil, {{Kind: OpCAS, Off: 128, Size: 8, Val: 7, Match: true}}},
			got:  [2][][]byte{nil, {le64(swap)}},
			mem: func() []byte {
				return append(make([]byte, 128), le64(swap)...)
			}(),
			where: "win 0 rank 0 off 128:",
		},
		{
			name: "a Get returns a value no set of writes reaches",
			ops: [2][]OpSpec{{{Kind: OpAcc, Off: 0, Size: 8, Val: 1}},
				{{Kind: OpAcc, Off: 0, Size: 8, Val: 2}, {Kind: OpGet, Off: 0, Size: 8}}},
			got:   [2][][]byte{nil, {le64(a + b + 1)}},
			mem:   le64(a + b),
			where: "win 0 rank 0 off 0:",
		},
		{
			name: "rank 1's FetchAndOp goes first, and a Get sees the state between",
			ops:  [2][]OpSpec{{fao(1), {Kind: OpGet, Off: 0, Size: 8}}, {fao(2)}},
			got:  [2][][]byte{{le64(b), le64(b)}, {le64(0)}},
			mem:  le64(a + b),
		},
	} {
		p, res := history(c.ops, c.got, c.mem)
		got := strings.Join(checkAccesses(p, core.ModeNew, res), "\n")
		if c.where == "" && got != "" || c.where != "" && !strings.Contains(got, c.where) {
			t.Errorf("%s: checkAccesses said %q, want a problem at %q", c.name, got, c.where)
		}
	}
}

// TestSynchronizationRules holds hand-built lock histories over two ranks,
// with their epochs' spans, to the rules that read them: in each round,
// each rank whose ops are not nil locks rank 1, exclusively unless the
// history is shared. Three histories the program's synchronization
// forbids are reported, and four it allows are not.
func TestSynchronizationRules(t *testing.T) {
	ws := WindowSpec{AccSize: 64, SliceSz: 64, Op: core.OpSum, DT: core.TUint64, Passive: true}
	put := OpSpec{Kind: OpPut, Target: 1, Off: ws.SliceBase(0) + casSlotArea, Size: 1}
	get := OpSpec{Kind: OpGet, Target: 1, Off: put.Off, Size: 1}
	acc := func(val uint64) OpSpec { return OpSpec{Kind: OpAcc, Target: 1, Off: 0, Size: 8, Val: val} }
	written := putByteAt(0, 0, put.Off)
	if written == 0 {
		t.Fatal("the put writes a zero byte, which no read can tell from the initial one")
	}
	// span is rank's epoch, open at open (and granted a nanosecond later),
	// complete at end, activated and completed at the window's ordinals act
	// and done.
	span := func(rank int, epoch int64, open, end sim.Time, act, done int64) trace.Span {
		return trace.Span{Rank: rank, Epoch: epoch, Class: trace.ClassLock, Open: open, Activate: open,
			Grant: open + 1, Complete: end, ActOrd: act, EndOrd: done}
	}
	one := func(b byte) []byte { return []byte{b} }
	for _, c := range []struct {
		name   string
		shared bool
		ops    [][2][]OpSpec // per round, per rank
		spans  []trace.Span
		got    [][]byte // rank 0's fetches
		mem    func(m []byte)
		where  string // "" for a legal history
	}{
		{
			name:  "a Get returns the initial byte of a put settled before its epoch opened",
			ops:   [][2][]OpSpec{{{put}, nil}, {{get}, nil}},
			spans: []trace.Span{span(0, 0, 0, 10, 1, 2), span(0, 1, 20, 30, 3, 4)},
			got:   [][]byte{one(0)},
			mem:   func(m []byte) { m[put.Off] = written },
			where: fmt.Sprintf("win 0 rank 1 off %d: no order", put.Off),
		},
		{
			name:   "a Get and a put in two epochs that progress concurrently",
			shared: true,
			ops:    [][2][]OpSpec{{{put}, nil}, {{get}, nil}},
			spans:  []trace.Span{span(0, 0, 0, 10, 1, 3), span(0, 1, 5, 30, 2, 4)},
			got:    [][]byte{one(0)},
			mem:    func(m []byte) { m[put.Off] = written },
			where:  "rank 0 win 0: lock epoch 0 and lock epoch 1 progressed concurrently and conflict at rank 1",
		},
		{
			name:  "two exclusive holds of rank 1's lock overlap",
			ops:   [][2][]OpSpec{{{}, {}}},
			spans: []trace.Span{span(0, 0, 0, 10, 1, 2), span(1, 0, 5, 15, 1, 2)},
			mem:   func([]byte) {},
			where: "win 0 rank 1: rank 0's lock epoch 0 and rank 1's lock epoch 0 held it at once",
		},
		{
			name:  "the Get's epoch opens after the put's completes, and the Get sees the put",
			ops:   [][2][]OpSpec{{{put}, nil}, {{get}, nil}},
			spans: []trace.Span{span(0, 0, 0, 10, 1, 2), span(0, 1, 20, 30, 3, 4)},
			got:   [][]byte{one(written)},
			mem:   func(m []byte) { m[put.Off] = written },
		},
		{
			name:   "a Get and a put of other bytes in two epochs that progress concurrently",
			shared: true,
			ops:    [][2][]OpSpec{{{put}, nil}, {{{Kind: OpGet, Target: 1, Off: put.Off + 1, Size: 1}}, nil}},
			spans:  []trace.Span{span(0, 0, 0, 10, 1, 3), span(0, 1, 5, 30, 2, 4)},
			got:    [][]byte{one(0)},
			mem:    func(m []byte) { m[put.Off] = written },
		},
		{
			name:   "two Gets of one byte in two epochs that progress concurrently",
			shared: true,
			ops:    [][2][]OpSpec{{{get}, nil}, {{get}, nil}},
			spans:  []trace.Span{span(0, 0, 0, 10, 1, 3), span(0, 1, 5, 30, 2, 4)},
			got:    [][]byte{one(0), one(0)},
			mem:    func([]byte) {},
		},
		{
			name:   "two accumulates of one element in two epochs that progress concurrently",
			shared: true,
			ops:    [][2][]OpSpec{{{acc(1)}, nil}, {{acc(2)}, nil}},
			spans:  []trace.Span{span(0, 0, 0, 10, 1, 3), span(0, 1, 5, 30, 2, 4)},
			mem:    func(m []byte) { binary.LittleEndian.PutUint64(m, mix64(1)+mix64(2)) },
		},
	} {
		p := &Program{NRanks: 2, Windows: []WindowSpec{ws}}
		for _, ops := range c.ops {
			rd := Round{Kind: RLock, LockTarget: []int{-1, -1}, LockShared: []bool{c.shared, c.shared},
				Ops: ops[:], Nonblocking: make([]bool, 2), Compute: make([]int64, 2)}
			for r := range ops {
				if ops[r] != nil {
					rd.LockTarget[r] = 1
				}
			}
			p.Rounds = append(p.Rounds, rd)
		}
		mem := make([]byte, ws.TotalSize(2))
		c.mem(mem)
		res := &RunResult{Mems: [][][]byte{{make([]byte, len(mem)), mem}}, Fetched: [][][]byte{c.got, nil}, Spans: c.spans}
		got := strings.Join(checkAccesses(p, core.ModeNew, res), "\n")
		if c.where == "" && got != "" || c.where != "" && !strings.Contains(got, c.where) {
			t.Errorf("%s: checkAccesses said %q, want a problem at %q", c.name, got, c.where)
		}
	}
}

// BenchmarkVerify times Verify alone over the finished runs of seeds 1-20
// under the paper's stack, the MVAPICH model and the flush design (the flush
// arm on its own programs, GenerateFor); one op verifies all 60 runs.
//
//	go test -run '^$' -bench Verify -benchtime 200x -count 10 ./internal/fuzz
func BenchmarkVerify(b *testing.B) {
	type run struct {
		p    *Program
		mode core.Mode
		res  *RunResult
	}
	var runs []run
	for seed := uint64(1); seed <= 20; seed++ {
		for _, mode := range []core.Mode{core.ModeNew, core.ModeVanilla, core.ModeFlush} {
			p := GenerateFor(seed, mode)
			runs = append(runs, run{p, mode, Execute(p, mode)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			if problems := Verify(r.p, r.mode, r.res); len(problems) != 0 {
				b.Fatalf("seed %d mode %s: %v", r.p.Seed, r.mode, problems)
			}
		}
	}
}
