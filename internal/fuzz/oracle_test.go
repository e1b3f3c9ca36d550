package fuzz

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
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
							written = written || a.win == wi && a.o.Target == r && a.writes() && a.covers(int64(x), 1)
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
		got := strings.Join(checkLocations(p, core.ModeNew, res), "\n")
		if c.where == "" && got != "" || c.where != "" && !strings.Contains(got, c.where) {
			t.Errorf("%s: checkLocations said %q, want a problem at %q", c.name, got, c.where)
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
