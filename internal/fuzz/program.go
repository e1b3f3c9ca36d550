// Package fuzz generates random multi-rank RMA epoch conversations from a
// deterministic seed, runs them under both the paper's stack (ModeNew) and
// the MVAPICH model (ModeVanilla), and checks a battery of invariants after
// every run: every window location against one ordering rule, the ω-counter
// algebra, lock-agent safety, serial-activation legality and request
// completion. Every failure is reproducible from its seed alone.
//
// A third campaign mode targets the epochless flush design (core.ModeFlush):
// its programs (GenerateFor) are lock/lock_all/flush-burst conversations
// under the same memory-effect discipline, so the identical oracle applies,
// plus a flush-specific end-state check — the scalable-lock protocol
// counters must all return to zero.
//
// Programs are deadlock-free by construction:
//
//   - rounds are globally ordered: every rank walks the same round list, so
//     a round's epochs are application-closed before any rank reaches the
//     next round;
//   - GATS rounds are bipartite (origin and target groups are disjoint and
//     no rank plays both roles), which avoids the mutual Start/Post cycles
//     that serial activation cannot untangle without reorder flags;
//   - lock epochs are closed before the next round opens, so no rank ever
//     holds a lock while blocked on another;
//   - fence sequences always end with AssertNoSucceed;
//   - each window is dedicated to one synchronization family — active target
//     (fence, GATS) or passive target (lock, lock_all). MPI declares a
//     concurrently locked and exposed window erroneous, and with nonblocking
//     epochs plus reorder flags a lock round can still be in flight when the
//     next round's exposure opens; segregating the families per window keeps
//     every generated program legal.
//
// Memory effects are deterministic by a disjointness discipline: each
// origin's puts land in a private per-origin slice whose payload bytes are a
// pure function of (window, origin, offset); all accumulate-class writes
// share one region and one commutative-associative operator per window; each
// CompareAndSwap uses a program-unique slot. So every location's writes
// commute, and Verify holds each location — an accumulate element, a CAS slot
// or a put byte — to one rule (oracle.go): its writes have one order in which
// every atomic fetch returns the state before its own write, every plain read
// (RunResult.Fetched) returns a state the order passes through, and the last
// state is the final memory. That order also respects completion, read from
// the epochs' trace spans, and the spans hold the run to Section VI-C, which
// the generator keeps (serialize); flush mode opens no epochs.
package fuzz

import (
	"encoding/binary"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
)

// OpKind enumerates the RMA operation classes the fuzzer issues.
type OpKind int

// Op kinds.
const (
	OpPut OpKind = iota
	OpGet
	OpAcc
	OpGetAcc
	OpFAO
	OpCAS
)

// OpSpec is one generated RMA operation. Offsets are absolute within the
// target window.
type OpSpec struct {
	Kind   OpKind
	Target int
	Off    int64
	Size   int64
	Val    uint64 // operand seed for accumulate-class ops and CAS swap
	NoOp   bool   // GetAcc only: use OpNoOp (pure atomic read)
	Match  bool   // CAS only: compare value matches the slot's initial zero
}

// RoundKind enumerates the synchronization families a round exercises.
type RoundKind int

// Round kinds. RFlush appears only in flush-mode programs (GenerateFor):
// an epochless burst — members issue operations with no lock at all and
// reconcile with a window-wide flush, the idiom ModeFlush exists for.
const (
	RFence RoundKind = iota
	RGATS
	RLock
	RLockAll
	RFlush
)

// Round is one globally ordered conversation step on a single window.
type Round struct {
	Win  int
	Kind RoundKind

	// RGATS: disjoint origin/target groups; ranks in neither group sit out.
	Origins []int
	Targets []int

	// RLock: per-rank lock target (-1 = sit out) and lock sharedness.
	LockTarget []int
	LockShared []bool

	// RLockAll participants.
	Member []bool

	// RFence data phases; the round issues Phases+1 fence calls, the last
	// with AssertNoSucceed.
	Phases   int
	PhaseOps [][][]OpSpec // [phase][rank][]

	// Ops for non-fence rounds, indexed by rank.
	Ops [][]OpSpec

	// Nonblocking selects the I-variant synchronizations for a rank
	// (honoured in ModeNew only; vanilla has no nonblocking forms).
	Nonblocking []bool

	// Compute is a per-rank pre-round computation delay in nanoseconds.
	Compute []int64
}

// writes reports whether o changes its target's memory: every put and
// accumulate but a NoOp one, and a CAS whose compare value matches.
func (o *OpSpec) writes() bool { return o.Kind != OpGet && !o.NoOp && (o.Kind != OpCAS || o.Match) }

// conflicts reports whether o and q, of one origin, may not progress in
// concurrent epochs (Section VI-C): they overlap at one target, one writes,
// and one is a put or get (a window's accumulates share one operator).
func (o OpSpec) conflicts(q OpSpec) bool {
	return o.Target == q.Target && o.Off < q.Off+q.Size && q.Off < o.Off+o.Size &&
		(o.writes() || q.writes()) && min(o.Kind, q.Kind) <= OpGet
}

// casSlotArea reserves the head of every per-origin slice for CAS slots
// (8 bytes each); puts start after it.
const casSlotArea = 32

// WindowSpec describes one window of the program. The exposed memory is
// [0, AccSize) shared accumulate region, then NRanks private slices of
// SliceSz bytes each.
type WindowSpec struct {
	AccSize int64
	SliceSz int64
	Op      core.AccOp // the single combining operator used on this window
	DT      core.DType
	Info    core.Info
	Passive bool // true: lock/lock_all rounds only; false: fence/GATS only
}

// TotalSize returns the window size for a job of n ranks.
func (ws WindowSpec) TotalSize(n int) int64 { return ws.AccSize + int64(n)*ws.SliceSz }

// SliceBase returns the absolute offset of origin o's private slice.
func (ws WindowSpec) SliceBase(o int) int64 { return ws.AccSize + int64(o)*ws.SliceSz }

// Program is a fully generated epoch conversation.
type Program struct {
	Seed         uint64
	NRanks       int
	ProcsPerNode int
	Windows      []WindowSpec
	Rounds       []Round
}

// OpCount returns the total number of generated RMA operations.
func (p *Program) OpCount() int {
	n := 0
	for _, rd := range p.Rounds {
		for _, ops := range rd.Ops {
			n += len(ops)
		}
		for _, ph := range rd.PhaseOps {
			for _, ops := range ph {
				n += len(ops)
			}
		}
	}
	return n
}

// accOps and accDTs are the operator/datatype pool safe for the oracle:
// every operator is commutative and associative over its datatype, so the
// final memory is independent of the order concurrent epochs applied in.
// (Floating-point sums and OpReplace are excluded for exactly that reason.)
var accOps = []core.AccOp{core.OpSum, core.OpBand, core.OpBor, core.OpBxor, core.OpMax, core.OpMin, core.OpProd}
var accDTs = []core.DType{core.TInt64, core.TUint64, core.TByte}

// Generate derives a complete program from seed. The same seed always yields
// the same program (sim.RNG is stable across Go releases).
func Generate(seed uint64) *Program { return serialize(generate(seed, false)) }

// GenerateFor derives the program seed runs under mode: Generate's, except
// under core.ModeFlush. A flush-mode program has the same shape discipline,
// restricted to what the epochless design supports: every window is
// passive-family and rounds draw from lock, lock_all and bare flush bursts
// (RFlush) — no fence or GATS, which flush mode rejects by construction.
// The memory-effect discipline is unchanged, so the same oracle applies:
// flush-mode locks provide mutual exclusion only and never order the
// generated disjoint/commutative writes.
//
// Deadlock freedom holds by the same arguments as Generate: a rank holds at
// most one lock per round and acquires it before blocking on anything else,
// and in-flight releases complete autonomously (NIC-driven), so a
// back-to-back re-acquire spins briefly rather than deadlocking.
func GenerateFor(seed uint64, mode core.Mode) *Program {
	if mode == core.ModeFlush {
		return generate(seed, true)
	}
	return Generate(seed)
}

func generate(seed uint64, flush bool) *Program {
	rng := sim.NewRNG(seed)
	n := 2 + rng.Intn(4) // 2..5 ranks
	ppn := []int{1, 2, n}[rng.Intn(3)]
	p := &Program{Seed: seed, NRanks: n, ProcsPerNode: ppn}

	nw := 1 + rng.Intn(2)
	for i := 0; i < nw; i++ {
		ws := genWindow(rng)
		ws.Passive = ws.Passive || flush
		p.Windows = append(p.Windows, ws)
	}
	// With two windows, force one of each family so every program still
	// exercises both; a single window picks its family at random.
	if nw == 2 && !flush && p.Windows[0].Passive == p.Windows[1].Passive {
		p.Windows[1].Passive = !p.Windows[0].Passive
	}

	// CAS slots are single-use per (window, origin) across the program.
	casUsed := make([][]int, nw)
	for i := range casUsed {
		casUsed[i] = make([]int, n)
	}

	rounds := 3 + rng.Intn(8)
	for i := 0; i < rounds; i++ {
		p.Rounds = append(p.Rounds, genRound(rng, p, casUsed, flush))
	}
	return p
}

// serialize makes blocking each nonblocking access or lock epoch that may
// race a later epoch of its rank and window: AAAR lets the later activate
// first, no fence or lock_all epoch of the rank sits between, and their ops
// conflict. It draws nothing.
func serialize(p *Program) *Program {
	for i, a := range p.Rounds {
		for me := range a.Nonblocking {
			for _, b := range p.Rounds[i+1:] {
				if !a.Nonblocking[me] || a.Kind != RGATS && a.Kind != RLock || !p.Windows[a.Win].Info.AAAR ||
					b.Win == a.Win && (b.Kind == RFence || b.Kind == RLockAll && b.Member[me]) {
					break
				}
				a.Nonblocking[me] = b.Win != a.Win || !slices.ContainsFunc(a.Ops[me], func(x OpSpec) bool { return slices.ContainsFunc(b.Ops[me], x.conflicts) })
			}
		}
	}
	return p
}

func genWindow(rng *sim.RNG) WindowSpec {
	accSizes := []int64{64, 256, 4096, 12288} // 12288 exercises >8 KiB rendezvous accumulates
	sliceSizes := []int64{64, 128, 256}
	return WindowSpec{
		AccSize: accSizes[rng.Intn(len(accSizes))],
		SliceSz: sliceSizes[rng.Intn(len(sliceSizes))],
		Op:      accOps[rng.Intn(len(accOps))],
		DT:      accDTs[rng.Intn(len(accDTs))],
		Info: core.Info{
			AAAR: rng.Intn(2) == 0,
			AAER: rng.Intn(2) == 0,
			EAER: rng.Intn(2) == 0,
			EAAR: rng.Intn(2) == 0,
		},
		Passive: rng.Intn(100) < 40,
	}
}

// genRound draws one round. Flush-mode rounds are lock (40%), lock_all
// (30%) or a bare epochless flush burst (30%); the others draw from the
// window's family, fence or GATS on an active window, lock or lock_all on a
// passive one.
func genRound(rng *sim.RNG, p *Program, casUsed [][]int, flush bool) Round {
	n := p.NRanks
	rd := Round{
		Win:         rng.Intn(len(p.Windows)),
		Nonblocking: make([]bool, n),
		Compute:     make([]int64, n),
	}
	for r := 0; r < n; r++ {
		rd.Nonblocking[r] = rng.Intn(2) == 0
		rd.Compute[r] = int64(rng.Intn(4001)) // 0..4 us
	}

	roll := rng.Intn(100)
	switch {
	case flush && roll < 40:
		rd.Kind = RLock
	case flush && roll < 70:
		rd.Kind = RLockAll
	case flush:
		rd.Kind = RFlush
	case p.Windows[rd.Win].Passive: // remap into the lock (25) / lock_all (15) range
		rd.Kind = RLock
		if 60+roll*40/100 >= 85 {
			rd.Kind = RLockAll
		}
	default: // remap into the fence (25) / GATS (35) range
		rd.Kind = RGATS
		if roll*60/100 < 25 {
			rd.Kind = RFence
		}
	}
	switch rd.Kind {
	case RFence:
		rd.Phases = 1 + rng.Intn(2)
		all := allRanks(n)
		for ph := 0; ph < rd.Phases; ph++ {
			phase := make([][]OpSpec, n)
			for r := 0; r < n; r++ {
				phase[r] = genOps(rng, p, rd.Win, r, all, casUsed)
			}
			rd.PhaseOps = append(rd.PhaseOps, phase)
		}
	case RGATS:
		perm := rng.Perm(n)
		no := 1 + rng.Intn(n-1)
		nt := 1 + rng.Intn(n-no)
		rd.Origins = append([]int(nil), perm[:no]...)
		rd.Targets = append([]int(nil), perm[no:no+nt]...)
		rd.Ops = make([][]OpSpec, n)
		for _, o := range rd.Origins {
			rd.Ops[o] = genOps(rng, p, rd.Win, o, rd.Targets, casUsed)
		}
	case RLock:
		rd.LockTarget = make([]int, n)
		rd.LockShared = make([]bool, n)
		rd.Ops = make([][]OpSpec, n)
		for r := 0; r < n; r++ {
			rd.LockTarget[r] = -1
			if rng.Intn(100) < 70 {
				t := rng.Intn(n)
				rd.LockTarget[r] = t
				rd.LockShared[r] = rng.Intn(2) == 0
				rd.Ops[r] = genOps(rng, p, rd.Win, r, []int{t}, casUsed)
			}
		}
	default: // RLockAll: half the ranks; RFlush: 70%
		rd.Member = make([]bool, n)
		rd.Ops = make([][]OpSpec, n)
		all := allRanks(n)
		for r := 0; r < n; r++ {
			if rd.Kind == RFlush && rng.Intn(100) < 70 || rd.Kind == RLockAll && rng.Intn(2) == 0 {
				rd.Member[r] = true
				rd.Ops[r] = genOps(rng, p, rd.Win, r, all, casUsed)
			}
		}
	}
	return rd
}

func allRanks(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// genOps generates up to 3 operations from origin, restricted to the given
// target set (the ranks the surrounding epoch covers).
func genOps(rng *sim.RNG, p *Program, win, origin int, targets []int, casUsed [][]int) []OpSpec {
	ws := p.Windows[win]
	var ops []OpSpec
	for i, count := 0, rng.Intn(4); i < count; i++ {
		t := targets[rng.Intn(len(targets))]
		o := OpSpec{Target: t, Val: rng.Uint64()}
		switch roll := rng.Intn(100); {
		case roll < 30:
			genPut(rng, &o, ws, origin)
		case roll < 45:
			o.Kind = OpGet
			total := ws.TotalSize(p.NRanks)
			o.Off = rng.Int63n(total)
			o.Size = 1 + rng.Int63n(min(128, total-o.Off))
		case roll < 70:
			o.Kind = OpAcc
			genAccRange(rng, &o, ws)
		case roll < 80:
			o.Kind = OpGetAcc
			if rng.Intn(100) < 30 {
				// OpNoOp writes nothing, so it may read anywhere.
				o.NoOp = true
				es := int64(ws.DT.Size())
				total := ws.TotalSize(p.NRanks)
				nelem := 1 + rng.Int63n(min(16, total/es))
				o.Size = nelem * es
				o.Off = es * rng.Int63n((total-o.Size)/es+1)
			} else {
				genAccRange(rng, &o, ws)
			}
		case roll < 90:
			o.Kind = OpFAO
			es := int64(ws.DT.Size())
			o.Size = es
			o.Off = es * rng.Int63n(ws.AccSize/es)
		default:
			slots := int(casSlotArea / 8)
			if casUsed[win][origin] < slots {
				o.Kind = OpCAS
				o.Size = 8
				o.Off = ws.SliceBase(origin) + 8*int64(casUsed[win][origin])
				o.Match = rng.Intn(2) == 0
				casUsed[win][origin]++
			} else {
				genPut(rng, &o, ws, origin)
			}
		}
		ops = append(ops, o)
	}
	return ops
}

// genPut targets the origin's private slice past the CAS slot area.
func genPut(rng *sim.RNG, o *OpSpec, ws WindowSpec, origin int) {
	o.Kind = OpPut
	area := ws.SliceSz - casSlotArea
	rel := rng.Int63n(area)
	o.Off = ws.SliceBase(origin) + casSlotArea + rel
	o.Size = 1 + rng.Int63n(min(64, area-rel))
}

// genAccRange picks an element-aligned range in the shared accumulate
// region; occasionally the whole region, which on 12 KiB windows exceeds the
// eager threshold and exercises the rendezvous accumulate path.
func genAccRange(rng *sim.RNG, o *OpSpec, ws WindowSpec) {
	es := int64(ws.DT.Size())
	if ws.AccSize > 8192 && rng.Intn(100) < 15 {
		o.Off, o.Size = 0, ws.AccSize
		return
	}
	nelem := 1 + rng.Int63n(min(16, ws.AccSize/es))
	o.Size = nelem * es
	o.Off = es * rng.Int63n((ws.AccSize-o.Size)/es+1)
}

// --- Deterministic payloads (shared by the runner and the oracle) ------- //

// mix64 is splitmix64's first output for seed x — a cheap, well-mixed hash.
func mix64(x uint64) uint64 { return sim.Mix64(x + 0x9e3779b97f4a7c15) }

// putByteAt is the put-payload function: byte value as a pure function of
// (window, origin, absolute offset). Two puts from the same origin to
// overlapping ranges therefore write identical bytes, making the final
// memory independent of their completion order.
func putByteAt(win, origin int, absOff int64) byte {
	return byte(mix64(uint64(win+1)<<40 ^ uint64(origin+1)<<20 ^ uint64(absOff)))
}

// putPayload appends a put operand to b.
func putPayload(b []byte, win, origin int, off, size int64) []byte {
	for i := int64(0); i < size; i++ {
		b = append(b, putByteAt(win, origin, off+i))
	}
	return b
}

// accPayload appends an accumulate-class operand, materialized from its
// seed, to b.
func accPayload(b []byte, val uint64, size int64, dt core.DType) []byte {
	for e := int64(0); e*int64(dt.Size()) < size; e++ {
		if v := mix64(val + uint64(e)); dt.Size() == 1 {
			b = append(b, byte(v))
		} else {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	return b
}

// casSwap is the swap operand of a CAS (always nonzero, so a successful
// swap is visible against the zero-initialized slot).
func casSwap(val uint64) uint64 { return mix64(val) | 1 }
