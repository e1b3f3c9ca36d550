package prog

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// A small vocabulary for the cases: rank 0 is the origin, rank 1 the target.
var (
	barrier  = Call{Kind: Barrier}
	wait     = Call{Kind: Wait}
	toTarget = Call{Kind: Put, Peer: 1, Off: 8, Size: 8, Buf: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
)

func gats(nb bool) [][]Call {
	if nb {
		return [][]Call{
			{{Kind: IStart, Arg: 1}, toTarget, {Kind: IComplete}, wait},
			{{Kind: IPost, Arg: 0}, {Kind: IWait}, wait},
		}
	}
	return [][]Call{
		{{Kind: Start, Arg: 1}, toTarget, {Kind: Complete}},
		{{Kind: Post, Arg: 0}, {Kind: WaitEpoch}},
	}
}

func fence(nb bool) [][]Call {
	k := Fence
	if nb {
		k = IFence
	}
	return [][]Call{
		{{Kind: k}, toTarget, {Kind: k, Flag: true}, wait},
		{{Kind: k}, {Kind: k, Flag: true}, wait},
	}
}

// locked is rank 0's passive-target epoch on rank 1 around body.
func locked(open, close Kind, body ...Call) [][]Call {
	return [][]Call{
		append(append([]Call{{Kind: open, Peer: 1, Flag: true}}, body...), Call{Kind: close, Peer: 1}, wait, barrier),
		{barrier},
	}
}

// fetch is a fetching operation on rank 1's window: an 8-byte operand (a
// CAS's swap then compare value) and room for the result.
func fetch(k Kind) Call {
	c := Call{Kind: k, Peer: 1, Off: 16, Size: 8, Op: uint8(core.OpSum), DT: uint8(core.TUint64), Buf: make([]byte, 16)}
	c.Buf[0] = 3
	if k == CAS {
		c.Buf = make([]byte, 24)
	}
	return c
}

// sampled is a nonblocking GATS epoch whose origin stamps, samples and
// samples the close's completion.
var sampled = [][]Call{
	{{Kind: Stamp}, {Kind: IStart, Arg: 1}, toTarget, {Kind: IComplete}, {Kind: StampDone}, {Kind: Compute, Size: 3000},
		wait, {Kind: Sample}, {Kind: SampleDone, Arg: 1}, {Kind: SampleMPI, Arg: 2}},
	{{Kind: Post, Arg: 0}, {Kind: WaitEpoch}},
}

// block is the Gen case's per-pass block: calls that are pending on a task
// rank, so the block is resumed inside a pass.
var block = []Call{{Kind: Lock, Peer: 1}, toTarget, {Kind: Compute, Size: 500}, {Kind: Unlock, Peer: 1}}

// cases is one small program per Kind: every rank's body, made twice
// between a Create and a Quiesce; Flush-mode kinds run on a flush window.
var cases = map[Kind][][]Call{
	Create:     {nil, nil},
	Fence:      fence(false),
	IFence:     fence(true),
	Start:      gats(false),
	IStart:     gats(true),
	Complete:   gats(false),
	IComplete:  gats(true),
	Post:       gats(false),
	IPost:      gats(true),
	WaitEpoch:  gats(false),
	IWait:      gats(true),
	Lock:       locked(Lock, Unlock, toTarget),
	ILock:      locked(ILock, IUnlock, toTarget),
	Unlock:     locked(Lock, Unlock),
	IUnlock:    locked(ILock, IUnlock),
	LockAll:    {{{Kind: LockAll}, toTarget, {Kind: UnlockAll}, barrier}, {barrier}},
	ILockAll:   {{{Kind: ILockAll}, toTarget, {Kind: IUnlockAll}, wait, barrier}, {barrier}},
	UnlockAll:  {{{Kind: LockAll}, {Kind: UnlockAll}, barrier}, {barrier}},
	IUnlockAll: {{{Kind: LockAll}, toTarget, {Kind: IUnlockAll}, wait, barrier}, {barrier}},
	Flush:      locked(Lock, Unlock, toTarget, Call{Kind: Flush, Peer: 1}),
	IFlush:     locked(Lock, Unlock, toTarget, Call{Kind: IFlush, Peer: 1}, wait),
	FlushAll:   {{{Kind: LockAll}, toTarget, {Kind: FlushAll}, {Kind: UnlockAll}, barrier}, {barrier}},
	IFlushAll:  {{{Kind: LockAll}, toTarget, {Kind: IFlushAll}, wait, {Kind: UnlockAll}, barrier}, {barrier}},
	Put:        locked(Lock, Unlock, toTarget),
	Get:        locked(Lock, Unlock, Call{Kind: Get, Peer: 1, Off: 8, Size: 8, Buf: make([]byte, 8)}),
	Acc:        locked(Lock, Unlock, Call{Kind: Acc, Peer: 1, Size: 8, Op: uint8(core.OpSum), DT: uint8(core.TUint64), Buf: []byte{5, 0, 0, 0, 0, 0, 0, 0}}),
	GetAcc:     locked(Lock, Unlock, fetch(GetAcc)),
	FetchOp:    locked(Lock, Unlock, fetch(FetchOp)),
	CAS:        locked(Lock, Unlock, fetch(CAS)),
	Send:       {{{Kind: Send, Peer: 1, Size: 64}}, {{Kind: Recv, Peer: 0}}},
	Recv:       {{{Kind: Send, Peer: 1, Size: 4 << 10}}, {{Kind: Recv, Peer: 0}}},
	Compute:    {{{Kind: Compute, Size: 2000}, barrier}, {barrier}},
	Barrier:    {{barrier}, {{Kind: Compute, Size: 100}, barrier}, {barrier}},
	Quiesce:    {{{Kind: Quiesce}}, {{Kind: Quiesce}}},
	Wait:       gats(true),
	WaitOldest: locked(ILock, IUnlock, toTarget, Call{Kind: IUnlock, Peer: 1}, Call{Kind: WaitOldest, Arg: 1}, Call{Kind: ILock, Peer: 1, Flag: true}),
	Gen:        {{{Kind: Gen}, barrier}, {barrier}},
	Stamp:      sampled,
	Sample:     sampled,
	StampDone:  sampled,
	SampleDone: sampled,
	SampleMPI:  sampled,
}

// flushKinds run on a flush-mode window: the flush family.
var flushKinds = map[Kind]bool{Flush: true, IFlush: true, FlushAll: true, IFlushAll: true}

// countingGen hands out block and counts the passes that asked.
type countingGen struct{ passes int }

func (g *countingGen) Next(error) []Call {
	g.passes++
	return block
}

// outcome is what the two execution forms must agree on.
type outcome struct {
	end     sim.Time
	events  uint64
	inMPI   []sim.Time
	ctrs    []string // every rank's counters
	samples [][]sim.Time
}

// run runs the case on a fresh world in one form and returns the outcome and
// every rank's task, for the white-box checks.
func run(t *testing.T, k Kind, tasks bool) (outcome, []task) {
	t.Helper()
	bodies := cases[k]
	n := len(bodies)
	opt := core.WinOptions{}
	if flushKinds[k] {
		opt.Mode = core.ModeFlush
	}
	w := mpi.NewWorld(n, fabric.DefaultConfig())
	w.SetWatchdog(100_000, 0) // a livelocked case fails instead of hanging
	r := NewRun(w, Window{Size: 64, Opt: opt})
	r.Slots(3, 2)
	ts := make([]task, n)
	err := w.RunProgram(func(rk *mpi.Rank) sim.Task {
		pg := Program{Pre: []Call{{Kind: Create}}, Body: bodies[rk.ID], Post: []Call{{Kind: Quiesce}}, Iters: 2,
			Groups: [][]int{{0}, {1}}, Gen: &countingGen{}}
		return ts[rk.ID].init(r, rk, pg)
	}, tasks)
	if err != nil {
		t.Fatalf("%v, tasks=%t: %v", k, tasks, err)
	}
	o := outcome{end: w.K.Now(), events: w.Events(), samples: r.Samples}
	for i := range r.Wins {
		o.inMPI = append(o.inMPI, w.Rank(i).TimeInMPI)
		o.ctrs = append(o.ctrs, w.Net.Counters.Snapshot(i))
	}
	return o, ts
}

// TestEveryKindBothForms runs one small program per Kind on task ranks and
// on goroutine ranks: the two must end at the same time after the same
// events, with the same MPI time and window counters on every rank and the
// same samples. A Wait leaves no request kept, and a Gen asks for its block
// once per body pass however often a call in the block was pending.
func TestEveryKindBothForms(t *testing.T) {
	for k := range numKinds {
		if _, ok := cases[k]; !ok {
			t.Errorf("kind %d has no case", k)
		}
	}
	if size := unsafe.Sizeof(Call{}); size > 64 {
		t.Errorf("a Call is %d bytes, want at most 64", size)
	}
	for k := range numKinds {
		task, ts := run(t, k, true)
		proc, _ := run(t, k, false)
		if !reflect.DeepEqual(task, proc) {
			t.Fatalf("kind %d: task/goroutine divergence:\n task      %+v\n goroutine %+v", k, task, proc)
		}
		for rank, tk := range ts { // every case waits what it closes
			if len(tk.kept) != 0 || slices.ContainsFunc(tk.kept[:cap(tk.kept)], func(q *mpi.Request) bool { return q != nil }) {
				t.Errorf("kind %d rank %d: requests %v still kept after the last Wait", k, rank, tk.kept[:cap(tk.kept)])
			}
		}
		switch k {
		case Gen: // the block's Compute is pending on a task rank, so the block resumes mid-pass
			if g := ts[0].Gen.(*countingGen); g.passes != ts[0].Iters {
				t.Errorf("Gen ran %d times in %d body passes", g.passes, ts[0].Iters)
			}
		case Sample:
			if len(task.samples[0]) != 2 || task.samples[0][0] <= 0 || task.samples[1][0] <= 0 || task.samples[2][0] <= 0 {
				t.Errorf("samples %v: want two positive readings per slot", task.samples)
			}
		}
	}
}

// failingGen hands out a block that fails at its Put (the lock epoch aborted
// while the block computed) and records what each Next was given.
type failingGen struct {
	errs []error
}

func (g *failingGen) Next(err error) []Call {
	g.errs = append(g.errs, err)
	switch len(g.errs) {
	case 1:
		return []Call{{Kind: Compute, Size: 1000}, {Kind: Gen}} // continues
	case 2:
		return []Call{{Kind: Lock, Peer: 1, Flag: true}, {Kind: Compute, Size: 100_000}, toTarget,
			{Kind: Unlock, Peer: 1}, {Kind: Gen}}
	case 3:
		return []Call{{Kind: Compute, Size: 1000}} // ends the Gen record
	}
	panic("Next asked past the end of the Gen record")
}

// A block ending in a Gen record continues; a call that fails under
// ErrorsReturn ends its block at once — the Unlock behind the failed Put is
// never made — and Next gets that call's error. The two rank forms agree.
// Without a Gen block to take it, the error is fatal.
func TestGenContinuesAndTakesErrorsBothForms(t *testing.T) {
	run := func(body []Call, g Generator, tasks bool) (sim.Time, error) {
		w := mpi.NewWorld(2, fabric.DefaultConfig())
		w.Net.EnableFaults(fabric.FaultProfile{
			Deaths: []fabric.RankDeath{{Rank: 1, At: 40 * sim.Microsecond}}, DetectDelay: 10 * sim.Microsecond})
		r := NewRun(w, Window{Size: 64, Opt: core.WinOptions{ErrorsReturn: true}})
		err := r.Exec(func(rk *mpi.Rank) Program {
			pg := Program{Pre: []Call{{Kind: Create}}}
			if rk.ID == 0 {
				pg.Body, pg.Iters, pg.Gen = body, 1, g
			}
			return pg
		}, tasks)
		return w.K.Now(), err
	}
	var ends []sim.Time
	for _, tasks := range []bool{false, true} {
		g := &failingGen{}
		end, err := run([]Call{{Kind: Gen}}, g, tasks)
		if err != nil {
			t.Fatalf("tasks=%t: %v", tasks, err)
		}
		var rma *core.RMAError
		if len(g.errs) != 3 || g.errs[0] != nil || g.errs[1] != nil || !errors.As(g.errs[2], &rma) {
			t.Fatalf("tasks=%t: Next got %v, want nil, nil, then the Put's *RMAError", tasks, g.errs)
		}
		ends = append(ends, end)
		_, err = run([]Call{{Kind: Lock, Peer: 1, Flag: true}, {Kind: Compute, Size: 100_000}, toTarget}, nil, tasks)
		if !errors.As(err, &rma) {
			t.Errorf("tasks=%t: a failed call outside a Gen block: run error %v, want the *RMAError", tasks, err)
		}
	}
	if ends[0] != ends[1] {
		t.Errorf("forms diverge: goroutine ranks end at %v, task ranks at %v", ends[0], ends[1])
	}
}

// TestWorldBuildAllocs pins what a world costs before its first epoch: build
// it, create one shape-only window and quiesce it, on task ranks. The cost
// per rank is the slope between 4 and 64 ranks, so what a world costs once
// cancels. Every layer cuts its per-rank state from one slice per world,
// and the pools fill a chunk at a time, once per world; what is left per
// rank is the two peer tables, the window and the program's own slice
// (6.3 per rank).
func TestWorldBuildAllocs(t *testing.T) {
	const budget = 7 // heap objects per rank
	build := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			w := mpi.NewWorld(n, fabric.DefaultConfig())
			r := NewRun(w, Window{Size: 64, Opt: core.WinOptions{ShapeOnly: true}})
			if err := r.Exec(func(*mpi.Rank) Program {
				return Program{Pre: []Call{{Kind: Create}, {Kind: Quiesce}}}
			}, true); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := build(4), build(64)
	perRank := (large - small) / 60
	t.Logf("4 ranks: %.0f objects, 64 ranks: %.0f objects: %.1f per rank (budget %d)", small, large, perRank, budget)
	if perRank > budget {
		t.Errorf("building a world costs %.1f heap objects per rank, budget %d", perRank, budget)
	}
}
