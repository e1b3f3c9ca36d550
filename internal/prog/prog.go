// Package prog is the one interpreter of rank programs. A program is value
// records, one per call (Call), built once per rank: a prologue, a body made
// Iters times and an epilogue. Step makes one record's call at a time and
// returns while the call is pending (task ranks only), so the repeat at the
// next Step is the identical call; a closing call's request is kept only once
// the call is not pending, and a record that makes no call — a sample, a Gen
// — is never run twice. A window call that fails under
// core.WinOptions.ErrorsReturn ends its Gen block and its error goes to the
// Generator; outside a Gen block it is fatal. Every figure, every fuzzed
// program and the kv store's clients are Programs, run on task ranks or, as
// the parity tests' reference, on coroutine ranks (mpi.World.RunProgram).
package prog

import (
	"slices"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Kind names what a record does. A synchronization with an I-form comes in a
// pair, the nonblocking kind right above the blocking one; the RMA
// operations are in fuzz.OpKind's order.
type Kind uint8

const (
	Create Kind = iota // the window Win, as Run.Windows[Win] describes it
	Fence              // Flag: core.AssertNoSucceed
	IFence
	Start // Groups[Arg]
	IStart
	Complete
	IComplete
	Post // Groups[Arg]
	IPost
	WaitEpoch
	IWait
	Lock // Flag: exclusive
	ILock
	Unlock
	IUnlock
	LockAll
	ILockAll
	UnlockAll
	IUnlockAll
	Flush
	IFlush
	FlushAll
	IFlushAll
	Put     // Buf: the data
	Get     // Buf: the result
	Acc     // Buf: the operand
	GetAcc  // Buf: the operand, then the result
	FetchOp // Buf: the operand, then the result
	CAS     // Buf: the swap value, the compare value, then the result
	Send    // Buf: the data
	Recv
	Compute // Size: the work, in virtual time
	Barrier
	Quiesce
	Wait       // every kept request; the set is emptied
	WaitOldest // the oldest kept request, once Arg are kept
	Gen        // no call: Program.Gen's next block runs here
	Stamp      // no call: the time origin (and the rank's MPI time at it)
	Sample     // no call: now - origin, into slot Arg
	StampDone  // no call: stamp the time the newest kept request completes
	SampleDone // no call: the stamped time - origin, into slot Arg
	SampleMPI  // no call: the rank's MPI time since the origin, into slot Arg
	numKinds
)

// msgTag tags the two-sided messages of Send and Recv.
const msgTag = 7

// Call is one record of a program: 56 bytes, so a program is one flat slice
// and stepping it allocates nothing per call. A field a kind does not name
// is zero.
type Call struct {
	Kind Kind
	Flag bool  // Fence, IFence: AssertNoSucceed; Lock, ILock: exclusive
	Op   uint8 // accumulate-class operations: the core.AccOp
	DT   uint8 // accumulate-class operations and CAS: the core.DType
	Win  int32 // the window, by its index in Run.Windows
	Peer int32 // the target, lock target or message peer
	Arg  int32 // Start, Post: the group's index; the sample slot; WaitOldest: the depth
	Off  int64
	Size int64 // bytes; Compute: virtual time
	Buf  []byte
}

// Result is the part of c's buffer a fetching operation writes its result
// to; nil for every other kind.
func (c *Call) Result() []byte {
	switch c.Kind {
	case Get:
		return c.Buf
	case GetAcc, FetchOp:
		return c.Buf[c.Size:]
	case CAS:
		return c.Buf[16:]
	}
	return nil
}

// Generator is a workload's per-rank state behind its Gen records: Next
// returns the block of records to make in the Gen record's place. A Gen
// record inside a block asks for the next block in its place, so a block
// ending in one continues the Gen record and one without ends it. A record
// whose call fails ends its block, and Next is asked for the replacement
// with the call's error; err is nil otherwise. Next makes no call, so the
// repeat of a pending call in the block never runs it again.
type Generator interface {
	Next(err error) []Call
}

// Program is one rank's program.
type Program struct {
	Pre, Body, Post []Call
	Iters           int       // passes over Body
	Groups          [][]int   // the groups Start and Post name
	Gen             Generator // what Gen records ask
}

// Window is what a Create record makes: a window of Size bytes per rank.
type Window struct {
	Size int64
	Opt  core.WinOptions
}

// Run is one world's programs: the windows they create, and what they leave —
// every rank's windows and the samples, by slot (each slot is written by one
// rank, so this is shard-safe).
type Run struct {
	World   *mpi.World
	RT      *core.Runtime
	Windows []Window
	Wins    [][]*core.Window // [rank][window]
	Samples [][]sim.Time
}

// NewRun prepares programs over w that create windows.
func NewRun(w *mpi.World, windows ...Window) *Run {
	n, k := w.Size(), len(windows)
	run := &Run{World: w, RT: core.NewRuntime(w), Windows: windows, Wins: make([][]*core.Window, n)}
	all := make([]*core.Window, n*k)
	for r := range run.Wins {
		run.Wins[r] = all[r*k : (r+1)*k : (r+1)*k]
	}
	return run
}

// Slots gives the run n sample slots, each with room for capacity samples.
func (run *Run) Slots(n, capacity int) {
	run.Samples = make([][]sim.Time, n)
	for i := range run.Samples {
		run.Samples[i] = make([]sim.Time, 0, capacity)
	}
}

// Exec runs mk's program on every rank, as task ranks or coroutine ranks
// (mpi.World.RunProgram); the two are bit-identical. The ranks' tasks are
// one slice.
func (run *Run) Exec(mk func(r *mpi.Rank) Program, tasks bool) error {
	all := make([]task, run.World.Size())
	return run.World.RunProgram(func(r *mpi.Rank) sim.Task { return all[r.ID].init(run, r, mk(r)) }, tasks)
}

// init builds r's task in place and returns it.
func (t *task) init(run *Run, r *mpi.Rank, pg Program) *task {
	*t = task{Program: pg, run: run, r: r, wins: run.Wins[r.ID]}
	t.kept = t.keptIn[:0]
	return t
}

// task is one rank running its program.
type task struct {
	Program
	run    *Run
	r      *mpi.Rank
	wins   []*core.Window
	kept   []*mpi.Request  // closing requests, oldest first
	keptIn [2]*mpi.Request // kept's storage until a program keeps more

	t0, mpi0, done sim.Time // the origin, the MPI time at it, the stamped completion
	stampDone      func()   // sets done; bound once, on first use

	sec, pass, pc int    // the section (prologue, body, epilogue), its pass, the record
	blk           []Call // the running Gen block
	bpc           int
}

func (t *task) Step(p *sim.Proc) {
	for ; t.sec < 3; t.sec, t.pass = t.sec+1, 0 {
		calls, passes := t.Pre, 1
		switch t.sec {
		case 1:
			calls, passes = t.Body, t.Iters
		case 2:
			calls = t.Post
		}
		for ; t.pass < passes; t.pass, t.pc = t.pass+1, 0 {
			for ; t.pc < len(calls); t.pc++ {
				c := &calls[t.pc]
				if c.Kind == Gen {
					if !t.gen() {
						return
					}
					continue
				}
				if !t.call(c) {
					return
				}
				if err := t.failed(c); err != nil {
					panic(err)
				}
			}
		}
	}
	p.TaskExit()
}

// gen runs a Gen record's blocks and reports whether they are done; false
// means a call in one is pending.
func (t *task) gen() bool {
	if t.blk == nil {
		t.blk, t.bpc = t.Gen.Next(nil), 0
	}
	for t.bpc < len(t.blk) {
		c := &t.blk[t.bpc]
		if c.Kind == Gen {
			t.blk, t.bpc = t.Gen.Next(nil), 0
			continue
		}
		if !t.call(c) {
			return false
		}
		if err := t.failed(c); err != nil {
			t.blk, t.bpc = t.Gen.Next(err), 0
			continue
		}
		t.bpc++
	}
	t.blk = nil
	return true
}

// call makes c's call and reports whether it is done; false means it is
// pending and is made again at the next Step.
func (t *task) call(c *Call) bool {
	r, peer := t.r, int(c.Peer)
	var win *core.Window
	if int(c.Win) < len(t.wins) {
		win = t.wins[c.Win]
	}
	op, dt := core.AccOp(c.Op), core.DType(c.DT)
	var closed *mpi.Request // a closing call's request, kept for Wait
	switch c.Kind {
	case Create:
		ws := &t.run.Windows[c.Win]
		t.wins[c.Win] = t.run.RT.CreateWindow(r, ws.Size, ws.Opt)
	case Fence:
		win.Fence(assert(c.Flag))
	case IFence:
		closed = win.IFence(assert(c.Flag))
	case Start:
		win.Start(t.Groups[c.Arg])
	case IStart:
		win.IStart(t.Groups[c.Arg])
	case Complete:
		win.Complete()
	case IComplete:
		closed = win.IComplete()
	case Post:
		win.Post(t.Groups[c.Arg])
	case IPost:
		win.IPost(t.Groups[c.Arg])
	case WaitEpoch:
		win.WaitEpoch()
	case IWait:
		closed = win.IWait()
	case Lock:
		win.Lock(peer, c.Flag)
	case ILock:
		win.ILock(peer, c.Flag)
	case Unlock:
		win.Unlock(peer)
	case IUnlock:
		closed = win.IUnlock(peer)
	case LockAll:
		win.LockAll()
	case ILockAll:
		win.ILockAll()
	case UnlockAll:
		win.UnlockAll()
	case IUnlockAll:
		closed = win.IUnlockAll()
	case Flush:
		win.Flush(peer)
	case IFlush:
		closed = win.IFlush(peer)
	case FlushAll:
		win.FlushAll()
	case IFlushAll:
		closed = win.IFlushAll()
	case Put:
		win.Put(peer, c.Off, c.Buf, c.Size)
	case Get:
		win.Get(peer, c.Off, c.Buf, c.Size)
	case Acc:
		win.Accumulate(peer, c.Off, op, dt, c.Buf, c.Size)
	case GetAcc:
		win.GetAccumulate(peer, c.Off, op, dt, c.Buf[:c.Size:c.Size], c.Result(), c.Size)
	case FetchOp:
		win.FetchAndOp(peer, c.Off, op, dt, c.Buf[:c.Size:c.Size], c.Result())
	case CAS:
		win.CompareAndSwap(peer, c.Off, dt, c.Buf[8:16:16], c.Buf[:8:8], c.Result())
	case Send:
		r.SendMsg(peer, msgTag, c.Buf, c.Size)
	case Recv:
		r.RecvMsg(peer, msgTag)
	case Compute:
		r.Compute(c.Size)
	case Barrier:
		r.Barrier()
	case Quiesce:
		win.Quiesce()
	case Wait:
		if r.Wait(t.kept...); !r.Pending() {
			clear(t.kept)
			t.kept = t.kept[:0]
		}
	case WaitOldest:
		if len(t.kept) >= int(c.Arg) {
			if r.Wait(t.kept[0]); !r.Pending() {
				t.kept = slices.Delete(t.kept, 0, 1)
			}
		}
	case Stamp:
		t.t0, t.mpi0 = r.Now(), r.TimeInMPI
	case Sample:
		t.sample(c.Arg, r.Now()-t.t0)
	case StampDone:
		if t.stampDone == nil {
			t.stampDone = func() { t.done = r.Now() }
		}
		t.kept[len(t.kept)-1].OnComplete(t.stampDone)
	case SampleDone:
		t.sample(c.Arg, t.done-t.t0)
	case SampleMPI:
		t.sample(c.Arg, r.TimeInMPI-t.mpi0)
	}
	if r.Pending() {
		return false
	}
	if closed != nil {
		t.kept = append(t.kept, closed)
	}
	return true
}

// failed returns the error c's call, just made, recorded on its window under
// core.WinOptions.ErrorsReturn, or nil.
func (t *task) failed(c *Call) error {
	if int(c.Win) < len(t.wins) && t.wins[c.Win] != nil {
		return t.wins[c.Win].TakeErr()
	}
	return nil
}

func (t *task) sample(slot int32, d sim.Time) {
	t.run.Samples[slot] = append(t.run.Samples[slot], d)
}

func assert(noSucceed bool) core.FenceAssert {
	if noSucceed {
		return core.AssertNoSucceed
	}
	return core.AssertNone
}
