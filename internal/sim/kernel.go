// Package sim provides a deterministic discrete-event simulation kernel.
//
// A simulated MPI rank is a Proc: a resumable state machine (SpawnTask) or a
// function with blocking calls (Spawn), whose body runs as a coroutine. Both
// are stepped in kernel context by their start and wake events: a Spawn
// proc's Step resumes the body and returns when the body parks or returns.
//
// There is no kernel goroutine and one event loop (Kernel.loop), which always
// runs on the caller of Run/Drain (or a shard round's): it pops an event and
// runs it, which for a wake means running the proc's body until it waits
// again, and only then pops the next. "Kernel context" therefore means
// "inside an event callback" on that one goroutine, and exactly one piece of
// code — the loop or the body it resumed — touches simulation state at any
// instant.
// Combined with a totally ordered event queue — keyed on (time, seq), where
// seq is the insertion sequence for ordinary events and an (owner, counter)
// pair for events that may cross shards — this makes every simulation
// bit-for-bit reproducible. The queue (queue.go) stores events in two
// structures, per-nanosecond lists for what is pushed in or nearly in seq
// order and a heap for the rest, and pops by merging them on that one key, so
// which structure held an event does not influence the order either.
//
// Time is virtual and expressed in nanoseconds. Nothing in this package
// consults the wall clock.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time = int64

// Convenience duration units, all in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// event is a scheduled callback: fn(arg) at virtual time at. Events with
// equal activation time fire in seq order, which keeps runs deterministic.
// fn is a shared, capture-free function and arg its pointer-shaped argument,
// so hot paths schedule without allocating a closure per event; the plain
// func() form of At rides in arg behind runFunc (a func value is pointer-
// shaped too: boxing it allocates nothing), which keeps the event at 40
// bytes for every storage that holds one.
//
// seq is a composite key with two bands (see AtCross). Band 0 — plain
// At/AtCall events — uses the kernel's local insertion counter, so among
// band-0 events push order is seq order (the event queue's FIFOs rest on
// exactly that). Band 1 — cross-owner events — sets the top bit and encodes
// (owner, per-owner counter), a key that is a pure function of the program
// rather than of the global interleaving, which is what makes sharded
// execution bit-identical to serial. All band-1 events at a timestamp fire
// after all band-0 events at that timestamp, in (owner, counter) order.
type event struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// runFunc is the fn of an event scheduled with At: arg is the func() to run.
func runFunc(x any) { x.(func())() }

// Band-1 seq layout: [63]=1 | [40..62]=owner+1 (23 bits) | [0..39]=counter.
// owner -1 (the fabric engine pseudo-owner) encodes as 0.
const (
	crossBand       uint64 = 1 << 63
	crossOwnerShift        = 40
	crossOwnerMax          = 1<<23 - 2
	crossCntMax            = 1<<crossOwnerShift - 1
)

// yieldEvery is how many events the event loop runs between two yields of
// its OS thread to the Go scheduler (loop); Run yields once more when the
// loop ends. A simulation runs entirely inside one loop that never blocks —
// a coroutine switch is no scheduling point — so at GOMAXPROCS 1 the garbage
// collector's fractional mark worker would run only when the loop is
// preempted, a mark phase would stretch over tens of milliseconds, and
// everything allocated meanwhile would survive the cycle: the heap
// overshoots its goal and the next goal doubles. A yield moves no event; one
// per 4096 costs nothing measurable.
const yieldEvery = 1 << 12

// before reports whether e fires before o in the (at, seq) total order.
// seq values are unique, so the order is strict.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel owns the virtual clock, the event queue and all Procs of one
// simulation run. The zero value is not usable; call NewKernel.
//
// The event queue (queue.go) is a 4-ary min-heap of event values in front of
// which, once deepQueue events are pending, events are filed under
// one-nanosecond slots instead, each a FIFO of the instant's band-0 events —
// ordered by construction, because their seq is minted in push order — and a
// sorted list of its band-1 events, whose keys arrive nearly in order. The
// heap keeps what is out of the wheels' reach or too far out of order. Every
// pop merges the two sides on the full (at, seq) key. Pushes append into
// reused storage (the heap's backing array, the wheels' node slab and its
// free list), so the scheduling hot path performs zero allocations once
// capacity has warmed up — no per-event box, no interface conversions.
type Kernel struct {
	now     Time
	cur     uint64  // see Seq
	heap    []event // the general side of the queue: any key, any distance
	w       *wheels // the by-construction side; nil until the queue first gets deep
	wn      int     // events in the wheels
	seq     uint64
	procs   []*Proc
	started bool
	fail    error // first panic or kernel-level error observed
	until   Time  // events activating after this instant stay queued (loop)

	// Watchdog state (see SetWatchdog): budgets that turn silent hangs and
	// livelocks into aborts with a diagnostic report.
	maxEvents uint64 // 0 = unlimited
	maxTime   Time   // 0 = unlimited
	nEvents   uint64

	// diagProviders contribute extra per-proc state (e.g. RMA epoch dumps)
	// to deadlock and watchdog reports. Only invoked when building a report.
	diagProviders []func(*Proc) string

	// visiting is set only while reportInto collects wait sites: a parked
	// body resumed with it set yields its own call site and parks again
	// (Proc.park), so a park costs no stack walk until a report asks for one.
	visiting bool

	// Sharded execution (see shards.go). group is non-nil when this kernel
	// is one shard of a Shards run; shardID is its index there (the fabric
	// stage uses index len(rank shards)). crossCnt holds the per-owner
	// band-1 counters, indexed by owner+1; in a sharded run each shard only
	// touches the counters of the owners it executes, so the slices never
	// race. crash keeps a panic raised in kernel context on a shard worker
	// for the coordinator to re-raise (runRound).
	group    *Shards
	shardID  int
	crossCnt []uint64
	crash    any
}

// NewKernel returns an empty simulation kernel at virtual time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// push queues e: under the wheels while the queue is deep, and whatever the
// wheels decline into the 4-ary heap, whose fan-out (4 children per node)
// halves the tree depth versus a binary heap, trading a few extra comparisons
// per level for fewer moves.
func (k *Kernel) push(e event) {
	if len(k.heap)+k.wn >= deepQueue && k.wheelPush(&e) {
		return
	}
	k.heap = append(k.heap, e)
	k.siftUp()
}

// siftUp restores the heap's order after an append.
func (k *Kernel) siftUp() {
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the heap's earliest event. The caller must ensure
// the heap is non-empty.
func (k *Kernel) pop() event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure/arg references
	h = h[:n]
	k.heap = h
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// At schedules fn to run in kernel context at virtual time t. Scheduling in
// the past is an error that aborts the run.
func (k *Kernel) At(t Time, fn func()) { k.AtCall(t, runFunc, fn) }

// AtCall schedules fn(arg) at virtual time t. fn should be a shared,
// capture-free function: unlike At, this form allocates nothing when arg is
// a pointer, which is what keeps the NIC pipeline and proc wakeups off the
// heap.
func (k *Kernel) AtCall(t Time, fn func(any), arg any) { k.AtCallSeq(t, k.Reserve(), fn, arg) }

// Reserve mints the band-0 seq an event scheduled now would get, for an
// event scheduled later under it (AtCallSeq), if at all: a model that keeps
// a chain of events as closed forms of their times keeps their tie-breaks.
func (k *Kernel) Reserve() uint64 {
	k.seq++
	return k.seq
}

// AtCallSeq schedules fn(arg) at t under a seq taken with Reserve, once.
func (k *Kernel) AtCallSeq(t Time, seq uint64, fn func(any), arg any) {
	if t < k.now {
		k.abort(fmt.Errorf("sim: event scheduled in the past: t=%d now=%d", t, k.now))
		return
	}
	k.push(event{at: t, seq: seq, fn: fn, arg: arg})
}

// Seq returns the largest band-0 seq of the current instant that has fired
// or is firing: the running event's, or in a cross event the last minted
// (an instant's band-0 events precede its cross events).
func (k *Kernel) Seq() uint64 { return k.cur }

// AfterCall schedules fn(arg) d nanoseconds of virtual time from now.
func (k *Kernel) AfterCall(d Time, fn func(any), arg any) { k.AtCall(k.now+d, fn, arg) }

// AtCross schedules fn(arg) at virtual time t with a band-1 key derived from
// owner — the logical source of the event (a rank ID, or -1 for the fabric
// engine) — and routes it to the shard owning dst (a rank ID, or -1 for the
// fabric stage) when the kernel is part of a sharded run.
//
// The band-1 key (owner, per-owner counter) is a pure function of owner's own
// execution, not of the global event interleaving, so the firing order of
// cross events is identical whether the simulation runs serially or across
// any number of shards. Serial kernels use the exact same keys at the exact
// same call sites: all band-1 events at a timestamp fire after that
// timestamp's band-0 events, ordered by (owner, counter). Call sites whose
// events may land on another rank's shard (packet deliveries, credit returns
// crossing the fabric) must use this form; same-shard scheduling should keep
// using At/AtCall.
func (k *Kernel) AtCross(t Time, fn func(any), arg any, owner, dst int) {
	if t < k.now {
		k.abort(fmt.Errorf("sim: event scheduled in the past: t=%d now=%d", t, k.now))
		return
	}
	e := event{at: t, seq: k.crossSeq(owner), fn: fn, arg: arg}
	if g := k.group; g != nil {
		if ds := g.shardFor(dst); ds != k.shardID {
			g.outbox[k.shardID][ds] = append(g.outbox[k.shardID][ds], e)
			return
		}
	}
	k.push(e)
}

// crossSeq mints the next band-1 key for owner.
func (k *Kernel) crossSeq(owner int) uint64 {
	if owner < -1 || owner > crossOwnerMax {
		panic(fmt.Sprintf("sim: cross-event owner %d out of range", owner))
	}
	i := owner + 1
	for i >= len(k.crossCnt) {
		k.crossCnt = append(k.crossCnt, 0)
	}
	c := k.crossCnt[i]
	k.crossCnt[i] = c + 1
	if c > crossCntMax {
		panic(fmt.Sprintf("sim: cross-event counter overflow for owner %d", owner))
	}
	return crossBand | uint64(i)<<crossOwnerShift | c
}

// abort records a fatal kernel error; the loop stops before its next event
// and Run returns it.
func (k *Kernel) abort(err error) {
	if k.fail == nil {
		k.fail = err
	}
}

// Spawn registers a new process whose body starts executing at the current
// virtual time. The body runs as a coroutine under kernel scheduling.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	return k.SpawnTask(name, Body(body))
}

// SpawnTask registers a task proc whose state machine is first stepped at
// the current virtual time. See Task for the Step contract.
func (k *Kernel) SpawnTask(name string, t Task) *Proc {
	return k.SpawnTaskAt(k.now, name, t)
}

// SpawnTaskAt registers a task proc first stepped at virtual time t.
func (k *Kernel) SpawnTaskAt(at Time, name string, t Task) *Proc {
	p := new(Proc)
	k.launch(p, at, name, -1, t)
	return p
}

// Launch is SpawnTask into p, a zero Proc the caller owns, so that a world
// cuts its ranks' procs from one slice. The proc is named prefix followed
// by num, built only when the name is read.
func (k *Kernel) Launch(p *Proc, prefix string, num int, t Task) {
	k.launch(p, k.now, prefix, int32(num), t)
}

// launch registers p, stepping t from virtual time at. A Body task makes p
// a Spawn proc.
func (k *Kernel) launch(p *Proc, at Time, name string, num int32, t Task) {
	c, _ := t.(*coro)
	*p = Proc{k: k, name: name, num: num, ID: len(k.procs), waitTag: waitTagNotStarted, task: t, co: c}
	k.procs = append(k.procs, p)
	k.AtCall(at, wakeProc, p)
}

// waitTagNotStarted is the wait tag of a spawned proc whose start event has
// not fired yet, so deadlock reports on worlds that hang before launch name
// the real state instead of an empty site.
const waitTagNotStarted = "not yet started"

// wakeProc is the shared, capture-free start and resume event of every proc
// (SpawnTaskAt, Sleep, Yield, Signal.Fire): scheduling it through AtCall
// costs no allocation.
func wakeProc(x any) {
	p := x.(*Proc)
	p.k.stepTask(p)
}

// loop runs the events activating at or below until in (at, seq) order on
// the calling goroutine and reports why it stopped: nil once nothing is left
// at or below until, the run's failure once one is recorded, or a spent
// watchdog budget with its report. A panic in an event callback — kernel
// context: fabric frame validation, a malformed unlock at a lock agent —
// simply unwinds to the caller of Run. The watchdog checks are inert on
// shard kernels, whose budgets are kept by the group (Shards.SetWatchdog).
func (k *Kernel) loop(until Time) error {
	k.until = until
	for k.fail == nil {
		var e event
		if k.wn == 0 {
			if len(k.heap) == 0 || k.heap[0].at > until {
				return nil
			}
			e = k.pop()
		} else if !k.popMerged(&e) {
			return nil
		}
		k.now = e.at
		if k.maxTime > 0 && k.now > k.maxTime {
			return fmt.Errorf("sim: watchdog: virtual time %d exceeded horizon %d\n%s",
				k.now, k.maxTime, k.report())
		}
		k.nEvents++
		if k.nEvents%yieldEvery == 0 {
			runtime.Gosched()
		}
		if k.maxEvents > 0 && k.nEvents > k.maxEvents {
			return fmt.Errorf("sim: watchdog: event budget %d exhausted at t=%d (possible livelock)\n%s",
				k.maxEvents, k.now, k.report())
		}
		if k.cur = e.seq; e.seq&crossBand != 0 {
			k.cur = k.seq // every band-0 event minted so far has fired
		}
		e.fn(e.arg)
	}
	return k.fail
}

// reap unwinds the body of every Spawn proc still parked after a failed run,
// one at a time in spawn order, so its defers run strictly sequentially and
// no coroutine outlives Run. Stopping the coroutine makes the body's park
// call runtime.Goexit, which stop passes on to its caller: a helper
// goroutine, which it ends instead of the caller of Run.
func (k *Kernel) reap() {
	for i := 0; i < len(k.procs); i++ { // a body defer may Spawn; such procs never start
		p := k.procs[i]
		if p.co == nil || p.co.stop == nil {
			continue // a task, a finished proc (co released) or one never started
		}
		p.armed = false // a defer that waits again parks, and unwinds further
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer p.recoverPanic() // a panic in one of the body's defers
			p.co.stop()
		}()
		<-done
		p.finished, p.task, p.co = true, nil, nil
	}
}

// stepTask runs one Step of a task proc in kernel context and enforces the
// Task contract: the Step must have armed a wake source or finished the
// proc. A panic inside Step — a Spawn proc's body included — aborts the run
// naming the proc, so failures are identical across the two forms.
func (k *Kernel) stepTask(p *Proc) {
	if p.finished {
		return
	}
	p.armed = false
	p.waitTag = ""
	p.runStep()
	if !p.finished && !p.armed {
		k.abort(fmt.Errorf("sim: task %q returned from Step without arming a wake or exiting", p.Name()))
		p.finished = true
	}
	if p.finished {
		p.task, p.co = nil, nil // release the state machine
	}
}

// runStep invokes Step, turning a panic into the run's failure.
func (p *Proc) runStep() {
	defer p.recoverPanic()
	p.task.Step(p)
}

// recoverPanic, deferred, finishes the proc and records a panic of its code
// as the run's failure. Error panics are wrapped (%w) so callers of
// Kernel.Run can unwrap typed failures — e.g. core's *RMAError — with
// errors.As.
func (p *Proc) recoverPanic() {
	r := recover()
	if r == nil {
		return
	}
	p.finished = true
	if err, ok := r.(error); ok {
		p.k.abort(fmt.Errorf("sim: proc %q panicked: %w", p.Name(), err))
	} else {
		p.k.abort(fmt.Errorf("sim: proc %q panicked: %v", p.Name(), r))
	}
}

// SetWatchdog arms the kernel's hang protection: the run aborts with a
// diagnostic report once more than maxEvents events have been processed or
// once virtual time passes maxTime. Either budget may be zero to disable it.
// The event budget is what converts a livelock — procs waking each other at
// the same virtual instant forever, so the queue never drains — into an
// error instead of a hung `go test`.
func (k *Kernel) SetWatchdog(maxEvents uint64, maxTime Time) {
	k.maxEvents = maxEvents
	k.maxTime = maxTime
}

// AddDiagProvider registers fn to contribute extra state (one string, may be
// multi-line) about a proc to deadlock/watchdog reports. Providers returning
// "" are skipped. internal/core registers one that dumps RMA epoch state.
func (k *Kernel) AddDiagProvider(fn func(*Proc) string) {
	k.diagProviders = append(k.diagProviders, fn)
}

// Run executes events until the queue drains. It returns an error if any
// proc panicked, if an event was scheduled in the past, if a watchdog budget
// was exceeded, or if the queue drained while procs were still parked
// (deadlock). On an error return the procs still parked are unwound (reap),
// so a failed run leaves no goroutine behind. Whatever the outcome, Run
// yields the OS thread once it is done (yieldEvery), so a garbage collection
// that started during the run can finish its marking.
func (k *Kernel) Run() error {
	if k.started {
		return fmt.Errorf("sim: kernel already ran")
	}
	if k.group != nil {
		return fmt.Errorf("sim: kernel is a shard; drive it through Shards.Run")
	}
	k.started = true
	defer runtime.Gosched()
	err := k.loop(math.MaxInt64)
	if err == nil {
		if stuck := k.parked(); len(stuck) > 0 {
			err = fmt.Errorf("sim: deadlock at t=%d: parked procs with empty event queue: %s\n%s",
				k.now, strings.Join(stuck, ", "), k.report())
		}
	}
	if err != nil {
		k.reap()
	}
	return err
}

// Drain processes pending events until the queue is empty, without Run's
// run-once guard, deadlock detection or reaping: procs parked when it
// returns stay parked for the next call. It exists so microbenchmarks and
// allocation tests outside this package can pump the kernel in repeatable
// steps; simulations use Run. The watchdog budgets (SetWatchdog) ARE
// honored — a harness bug that makes a pumped chain self-reschedule forever
// must abort like any other livelock instead of hanging CI — with the same
// error shapes as Run. Budgets accumulate across Drain calls, exactly as
// they would across the events of one Run.
func (k *Kernel) Drain() error { return k.loop(math.MaxInt64) }

// Events returns the number of events processed so far.
func (k *Kernel) Events() uint64 { return k.nEvents }

// nextAt returns the activation time of the earliest pending event.
func (k *Kernel) nextAt() (Time, bool) {
	t, ok := Time(math.MaxInt64), false
	if len(k.heap) > 0 {
		t, ok = k.heap[0].at, true
	}
	if k.wn > 0 {
		// front leaves a window starting after the heap's top closed and
		// returns its start, which loses the comparison like any later event.
		if at, _ := k.front(t); at < t {
			t = at
		}
		ok = true
	}
	return t, ok
}

// runUntil executes every pending event with activation time strictly below
// horizon, including events those events insert locally. It is the per-round
// body of one shard: procs left parked at the horizon resume when the next
// round's loop reaches their wake.
func (k *Kernel) runUntil(horizon Time) error { return k.loop(horizon - 1) }

// parked lists the names of procs that are blocked with no pending wakeup.
func (k *Kernel) parked() []string {
	var names []string
	for _, p := range k.procs {
		if !p.finished {
			names = append(names, fmt.Sprintf("%s(wait=%s)", p.Name(), p.waitTag))
		}
	}
	sort.Strings(names)
	return names
}

// report builds the per-proc diagnostic block of deadlock/watchdog errors:
// one section per unfinished proc with its wait tag, the blocking call site
// of a started Spawn proc and any diag-provider state. It runs between
// events (Run, loop, Shards.Run), where every started body is parked.
func (k *Kernel) report() string {
	var b strings.Builder
	b.WriteString("blocked procs:\n")
	if k.reportInto(&b) == 0 {
		b.WriteString("  (none)\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// reportInto appends this kernel's blocked-proc sections to b and returns
// how many it wrote (shared by Kernel.report and the aggregated
// Shards.report, which must render byte-identical text). Each started
// Spawn proc's body is resumed once and yields back its own call site; task
// procs and procs that never started have no stack to ask.
func (k *Kernel) reportInto(b *strings.Builder) int {
	k.visiting = true
	n := 0
	for _, p := range k.procs {
		if p.finished {
			continue
		}
		n++
		fmt.Fprintf(b, "  %s: waiting on %q", p.Name(), p.waitTag)
		if p.co != nil && p.co.next != nil {
			if site, _ := p.co.next(); site != "" {
				fmt.Fprintf(b, " at %s", site)
			}
		}
		b.WriteByte('\n')
		for _, fn := range k.diagProviders {
			if d := fn(p); d != "" {
				for _, line := range strings.Split(strings.TrimRight(d, "\n"), "\n") {
					fmt.Fprintf(b, "    %s\n", line)
				}
			}
		}
	}
	k.visiting = false
	return n
}
