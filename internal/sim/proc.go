package sim

import (
	"fmt"
	"iter"
	"runtime"
	"strings"
)

// Proc is one simulated process (e.g. an MPI rank). Every proc is stepped in
// kernel context by its start and wake events (Task); the body is written in
// one of two forms, chosen at spawn time:
//
//   - SpawnTask/SpawnTaskAt: the body is a resumable state machine (Task)
//     whose waits arm a wake and return, so the proc owns no goroutine and
//     no stack at all. This is the fast path large worlds run on.
//   - Spawn (SpawnTask of a Body): the body is a function with blocking
//     Sleep/Wait calls, run as a coroutine (coro) that each Step resumes
//     until the body parks or returns. The coroutine is lazy — created at
//     the start event — and transient — it ends with the body, so a
//     finished proc costs no stack.
//
// Either way execution is strictly sequential: the event loop and the body
// it resumes take turns on the caller of Run, so proc code never races with
// other procs or with event callbacks.
type Proc struct {
	k        *Kernel
	Name     string
	ID       int
	finished bool
	waitTag  string // human-readable description of what the proc waits on

	// task is the proc's state machine, released when the proc finishes; co
	// is the same value for a Spawn proc, nil for a SpawnTask proc. armed
	// records that the current Step registered exactly one wake source
	// (TaskSleep, TaskYield or Signal.Wait) and must return.
	task  Task
	co    *coro
	armed bool
}

// Task is a resumable proc body: a state machine whose Step is invoked in
// kernel context each time the proc starts or wakes. Step must either arm
// exactly one wake source before returning — TaskSleep, TaskYield, or
// Signal.Wait — or call TaskExit to finish the proc; returning with neither
// is an error (the proc would silently never run again) and aborts the run.
//
// Tasks trade the blocking Proc API for zero per-rank goroutines and
// stacks: a 64k-rank world is 64k small structs, not 64k parked stacks.
// Scheduling-wise a task is indistinguishable from a Spawn proc making the
// same calls at the same virtual times, so observables are bit-identical
// across the two forms.
//
// The three wake sources are form-agnostic: in a Spawn proc's body they
// block inline and leave the proc unarmed, so a Step written as "make the
// call; return if Armed" runs to completion when such a body invokes it once.
type Task interface {
	Step(p *Proc)
}

// coro is the Task of a Spawn proc: its Step resumes the body's coroutine,
// which hands control back when the body parks (yield) or returns. A value a
// parked body yields is its call site, formatted when a report asks for it
// (Kernel.reportInto); ordinary parks yield "".
type coro struct {
	body  func(*Proc) // until the first Step starts the coroutine
	next  func() (string, bool)
	stop  func()
	yield func(string) bool
}

// Body returns the Task of a blocking body: a coroutine, created at the
// proc's start, that each Step resumes. Spawning it makes a Spawn proc.
func Body(body func(*Proc)) Task { return &coro{body: body} }

// Step runs the body until it parks or returns. A panic in the body comes
// out of next, so runStep reports it exactly as a task's own; so does a
// runtime.Goexit, which therefore ends the goroutine running the loop.
func (c *coro) Step(p *Proc) {
	if c.next == nil {
		body := c.body
		c.body = nil // the proc does not pin its closure for the rest of the run
		c.next, c.stop = iter.Pull(func(yield func(string) bool) {
			c.yield = yield
			body(p)
		})
	}
	if _, ok := c.next(); !ok {
		p.finished = true
	}
}

// now returns the current virtual time.
func (p *Proc) now() Time { return p.k.now }

// park suspends a Spawn proc's body until the next Step resumes it: its wake,
// which Step's caller has armed. The body is resumed out of turn only by a
// report, to format its own call site, and by Run reaping it after a failed
// run: yield then reports false and the body leaves through runtime.Goexit,
// which runs its defers and which, unlike a panic, no recover in them stops.
func (p *Proc) park(tag string) {
	p.armWake(tag)
	site := ""
	for {
		if !p.co.yield(site) {
			runtime.Goexit()
		}
		if !p.k.visiting {
			return
		}
		site = waitSite()
	}
}

// armWake records that the current Step has registered a wake source; a
// task must then return from Step. Arming twice in one Step is a bug — the
// proc would be woken twice for one logical wait — and panics.
func (p *Proc) armWake(tag string) {
	if p.armed {
		panic(fmt.Sprintf("sim: task %q armed two wake sources in one Step", p.Name))
	}
	p.armed = true
	p.waitTag = tag
}

// wait waits for the wake the caller has just registered, the way the
// proc's form does: a task arms it and reports true, a Spawn proc's body
// parks until it fires and reports false.
func (p *Proc) wait(tag string) bool {
	if p.co != nil {
		p.park(tag)
		return false
	}
	p.armWake(tag)
	return true
}

// TaskSleep is the form-agnostic Sleep. On a task proc it schedules a wake
// after d, arms it and returns true — the Step must return so the wake can
// fire. On a Spawn proc it sleeps inline and returns false. A non-positive d
// parks in neither form: nothing is scheduled and TaskSleep returns false.
func (p *Proc) TaskSleep(d Time, tag string) bool {
	if d <= 0 {
		return false
	}
	p.k.AtCall(p.k.now+d, wakeProc, p)
	return p.wait(tag)
}

// TaskYield is the form-agnostic Yield: the proc continues at the current
// virtual time, after every other currently-runnable same-time event. On a
// task proc it always arms and returns true, so the Step must return; on a
// Spawn proc it yields inline and returns false.
func (p *Proc) TaskYield() bool {
	p.k.AtCall(p.k.now, wakeProc, p)
	return p.wait("yield")
}

// Armed reports whether the current Step of a task proc has armed its wake
// and must return. Always false in a Spawn proc's body, whose waits complete
// inline.
func (p *Proc) Armed() bool { return p.armed }

// TaskExit finishes a task proc: the state machine is released and Step is
// never called again. The task counterpart of the body returning — which is
// what finishes a Spawn proc, so there it does nothing.
func (p *Proc) TaskExit() {
	if p.co == nil {
		p.finished = true
	}
}

// waitSite formats the blocking call site of the parked body calling it
// from park: the innermost frames that are neither in this package nor in
// internal/mpi's wait plumbing, i.e. the application (or RMA-layer) call
// that blocked. The walk starts in park, a few frames of this package below
// that call, so 24 frames reach well beyond it; past the body it meets only
// this package and the coroutine's runtime frames.
func waitSite() string {
	var pcs [24]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	var sites []string
	for {
		f, more := frames.Next()
		inSim := strings.Contains(f.File, "internal/sim/") && !strings.HasSuffix(f.File, "_test.go")
		inMPIWait := strings.HasSuffix(f.File, "internal/mpi/rank.go")
		inRuntime := strings.Contains(f.Function, "runtime.") || strings.HasPrefix(f.Function, "iter.")
		if f.File != "" && !inSim && !inMPIWait && !inRuntime {
			sites = append(sites, fmt.Sprintf("%s:%d", trimPath(f.File), f.Line))
			if len(sites) == 3 {
				break
			}
		}
		if !more {
			break
		}
	}
	return strings.Join(sites, " <- ")
}

// trimPath shortens an absolute source path to its last three elements.
func trimPath(file string) string {
	parts := strings.Split(file, "/")
	if len(parts) > 3 {
		parts = parts[len(parts)-3:]
	}
	return strings.Join(parts, "/")
}

// Sleep advances this proc's virtual time by d without consuming CPU-model
// resources. Other procs and the network keep progressing meanwhile. It is
// TaskSleep for a body that blocks.
func (p *Proc) Sleep(d Time) { p.TaskSleep(d, "sleep") }

// Yield gives every other currently-runnable same-time event a chance to run
// before this proc continues. It is TaskYield for a body that blocks.
func (p *Proc) Yield() { p.TaskYield() }

// Signal is a broadcast wakeup primitive. Procs park on it; Fire wakes all
// current waiters by scheduling resume events at the present virtual time.
// Waiters must re-check their predicate after waking (wakeups can be
// spurious with respect to any particular condition). A Signal may be held
// by value, as a rank holds its wake, but not copied once waited on.
type Signal struct {
	k       *Kernel
	waiters []*Proc
	// in is waiters' first storage: a rank's wake has one waiter, its own
	// proc, so it never grows a heap slice.
	in [1]*Proc
}

// NewSignal creates a Signal bound to kernel k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Fire wakes every proc currently parked on the signal. Safe to call from
// both kernel context and proc context. The waiters slice is emptied in
// place: Fire never runs a waiter inline — wakes go through the event
// queue — so no re-wait can append to it while it is drained.
func (s *Signal) Fire() {
	for i, p := range s.waiters {
		s.k.AtCall(s.k.now, wakeProc, p)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// Wait parks the calling proc until the next Fire. tag is used in deadlock
// diagnostics. For a task proc it arms the wake and returns immediately —
// the caller must unwind out of Step and re-check its predicate on the next
// Step, exactly as a Spawn proc's body re-checks after park returns.
func (s *Signal) Wait(p *Proc, tag string) {
	if s.waiters == nil {
		s.waiters = s.in[:0]
	}
	s.waiters = append(s.waiters, p)
	p.wait(tag)
}
