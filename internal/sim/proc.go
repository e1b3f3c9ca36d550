package sim

import (
	"fmt"
	"runtime"
	"strings"
)

// Proc is one simulated process (e.g. an MPI rank). A proc executes in one
// of two modes, chosen at spawn time:
//
//   - Spawn/SpawnAt: the body function runs in a dedicated goroutine with
//     blocking Sleep/Wait calls. The goroutine is lazy — created only when
//     the start event fires — and transient — it exits when the body
//     returns, so a finished proc costs no stack.
//   - SpawnTask/SpawnTaskAt: the body is a resumable state machine (Task)
//     stepped in kernel context, so the proc never owns a goroutine or a
//     stack at all. This is the fast path large worlds run on.
//
// Either way execution is strictly sequential: exactly one goroutine holds
// the kernel's execution token at any instant, so proc code never races
// with other procs or with event callbacks. A goroutine proc that blocks
// does not hand the token to a scheduler: it becomes the scheduler, running
// the event loop on its own goroutine until some proc — often itself — is
// due to continue (Kernel.drive).
type Proc struct {
	k        *Kernel
	Name     string
	ID       int
	finished bool
	waitTag  string // human-readable description of what the proc waits on

	// tok is where a goroutine-mode proc that gave the token away waits to
	// get it back: unbuffered, one send per resume, always from the goroutine
	// that ran the proc's wake event. nil until the goroutine is launched
	// (Kernel.handTo), and always nil for task procs.
	tok chan struct{}

	// body holds the application function between SpawnAt and the start
	// event (startProc), so spawning schedules no closure and spawning a
	// proc that a test never starts costs no goroutine.
	body func(*Proc)

	// task is the state machine of a SpawnTask proc; nil for goroutine
	// procs and released when the task finishes. armed records that the
	// current Step registered exactly one wake source (TaskSleep, TaskYield
	// or Signal.Wait) and must return; a goroutine proc never sets it.
	task  Task
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
// Scheduling-wise a task is indistinguishable from a goroutine proc making
// the same calls at the same virtual times, so observables are bit-identical
// across the two forms.
//
// The three wake sources are form-agnostic: on a goroutine proc they block
// inline and leave the proc unarmed, so a Step written as "make the call;
// return if Armed" runs to completion when a goroutine proc invokes it once.
type Task interface {
	Step(p *Proc)
}

// run is the goroutine entry point of a goroutine-mode proc, launched
// holding the token. When the body returns (or panics) the proc is finished
// but its goroutine still holds the token, so it keeps driving the event
// loop until the first hand-off and only then exits: finishing a proc costs
// no trip back to home.
func (p *Proc) run(body func(*Proc)) {
	defer func() {
		p.finished = true
		k := p.k
		if r := recover(); r != nil {
			// Error panics are wrapped (%w) so callers of Kernel.Run can
			// unwrap typed failures — e.g. core's *RMAError — with errors.As.
			if err, ok := r.(error); ok {
				k.abort(fmt.Errorf("sim: proc %q panicked: %w", p.Name, err))
			} else {
				k.abort(fmt.Errorf("sim: proc %q panicked: %v", p.Name, r))
			}
		}
		if k.reaping {
			k.home <- struct{}{}
			return
		}
		k.drive(p)
	}()
	body(p)
}

// now returns the current virtual time.
func (p *Proc) now() Time { return p.k.now }

// park blocks until some event resumes this proc, driving the event loop
// meanwhile. tag describes the wait for deadlock diagnostics. During reaping
// nothing may run any more, so a body defer that tries to block unwinds
// further instead.
func (p *Proc) park(tag string) {
	if p.k.reaping {
		runtime.Goexit()
	}
	p.waitTag = tag
	p.k.drive(p)
	p.waitTag = ""
}

// await blocks a proc that has given the token away until it comes back,
// which means the proc's wake event has just run on the sender's goroutine —
// unless Run is reaping or a report is visiting (serve). It stays small
// enough to inline into the handoff path.
func (p *Proc) await() {
	<-p.tok
	if k := p.k; k.reaping || k.visiting != nil {
		p.serve()
	}
}

// serve handles a token that is not the proc's wake. While Run is reaping,
// the goroutine unwinds through the body's defers to run's epilogue without
// resuming the body. While a report is visiting, the proc sends its call
// site back to the report and waits for the token again.
func (p *Proc) serve() {
	for k := p.k; ; <-p.tok {
		if k.reaping {
			runtime.Goexit()
		}
		if k.visiting == nil {
			return
		}
		k.visiting <- waitSite()
	}
}

// armWake is the task-mode counterpart of park: it records that the current
// Step has registered a wake source and returns to the caller (which must
// then return from Step). Arming twice in one Step is a bug — the proc
// would be woken twice for one logical wait — and panics.
func (p *Proc) armWake(tag string) {
	if p.armed {
		panic(fmt.Sprintf("sim: task %q armed two wake sources in one Step", p.Name))
	}
	p.armed = true
	p.waitTag = tag
}

// TaskSleep is the form-agnostic Sleep. On a task proc it schedules a wake
// after d, arms it and returns true — the Step must return so the wake can
// fire. On a goroutine proc it sleeps inline and returns false. A
// non-positive d matches Sleep's no-park semantics in both forms: nothing is
// scheduled and TaskSleep returns false.
func (p *Proc) TaskSleep(d Time, tag string) bool {
	if d <= 0 {
		return false
	}
	return p.wakeAt(p.k.now+d, tag)
}

// TaskYield is the form-agnostic Yield: the proc continues at the current
// virtual time, after every other currently-runnable same-time event. On a
// task proc it always arms and returns true, so the Step must return; on a
// goroutine proc it yields inline and returns false.
func (p *Proc) TaskYield() bool { return p.wakeAt(p.k.now, "yield") }

// wakeAt schedules the proc's own wake and waits for it the way the proc's
// form does: a task arms and reports true, a goroutine proc parks.
func (p *Proc) wakeAt(t Time, tag string) bool {
	p.k.AtCall(t, wakeProc, p)
	if p.task != nil {
		p.armWake(tag)
		return true
	}
	p.park(tag)
	return false
}

// Armed reports whether the current Step of a task proc has armed its wake
// and must return. Always false on a goroutine proc, whose waits complete
// inline.
func (p *Proc) Armed() bool { return p.armed }

// TaskExit finishes a task proc: the state machine is released and Step is
// never called again. The task counterpart of the body returning — which is
// what finishes a goroutine proc, so there it does nothing.
func (p *Proc) TaskExit() {
	if p.task != nil {
		p.finished = true
	}
}

// waitSite formats the blocking call site of the goroutine proc calling it
// from serve: the innermost frames that are neither in this package nor in
// internal/mpi's wait plumbing, i.e. the application (or RMA-layer) call
// that blocked. The walk starts in serve, up to six frames of this package
// (serve, await, wakeHome, stop, drive, park) below the call that parked, so
// 24 frames reach at least 16 beyond park.
func waitSite() string {
	var pcs [24]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	var sites []string
	for {
		f, more := frames.Next()
		inSim := strings.Contains(f.File, "internal/sim/") && !strings.HasSuffix(f.File, "_test.go")
		inMPIWait := strings.HasSuffix(f.File, "internal/mpi/rank.go")
		if f.File != "" && !inSim && !inMPIWait && !strings.Contains(f.Function, "runtime.") {
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
// resources. Other procs and the network keep progressing meanwhile.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	k := p.k
	k.AtCall(k.now+d, wakeProc, p)
	p.park("sleep")
}

// Yield gives every other currently-runnable same-time event a chance to run
// before this proc continues.
func (p *Proc) Yield() {
	k := p.k
	k.AtCall(k.now, wakeProc, p)
	p.park("yield")
}

// Signal is a broadcast wakeup primitive. Procs park on it; Fire wakes all
// current waiters by scheduling resume events at the present virtual time.
// Waiters must re-check their predicate after waking (wakeups can be
// spurious with respect to any particular condition).
type Signal struct {
	k       *Kernel
	waiters []*Proc
	// spare is the previous waiter slice, recycled by Fire so steady-state
	// wait/fire cycles allocate nothing. Fire never runs waiters inline —
	// wakes go through the event queue — so a re-wait from a woken proc
	// appends to the new waiters slice, never to the batch being drained.
	spare []*Proc
}

// NewSignal creates a Signal bound to kernel k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Fire wakes every proc currently parked on the signal. Safe to call from
// both kernel context and proc context.
func (s *Signal) Fire() {
	if len(s.waiters) == 0 {
		return
	}
	ws := s.waiters
	s.waiters = s.spare[:0]
	for _, p := range ws {
		s.k.AtCall(s.k.now, wakeProc, p)
	}
	for i := range ws {
		ws[i] = nil
	}
	s.spare = ws[:0]
}

// Wait parks the calling proc until the next Fire. tag is used in deadlock
// diagnostics. For a task proc it arms the wake and returns immediately —
// the caller must unwind out of Step and re-check its predicate on the next
// Step, exactly as a goroutine proc re-checks after park returns.
func (s *Signal) Wait(p *Proc, tag string) {
	s.waiters = append(s.waiters, p)
	if p.task != nil {
		p.armWake(tag)
		return
	}
	p.park(tag)
}
