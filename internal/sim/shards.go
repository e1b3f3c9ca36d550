package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
)

// Shards executes one simulation across several event kernels in parallel
// while keeping every observable bit-identical to the serial kernel. It is
// the classic conservative (lookahead / safe-horizon) PDES scheme:
//
//   - Ranks are partitioned into shards; each shard owns a Kernel with its
//     own heap, clock and seq counter, so everything a rank touches (its
//     Proc, NIC, windows, queues) stays single-threaded within the shard.
//     A shard's round — its event loop and every body the loop resumes —
//     runs on one goroutine (Kernel.loop), so the barrier's channel
//     operations order everything a shard did before the merge.
//   - The run proceeds in barrier-synchronized rounds. Each round computes
//     the global safe horizon = min(next event time across all shards) +
//     lookahead, where lookahead is the fabric's minimum cross-shard link
//     latency (> 0 by fabric.Config.Validate). Every shard then executes
//     its events strictly below the horizon in parallel: no event it can
//     receive from another shard during the round can activate below the
//     horizon, so no shard can miss a causal predecessor.
//   - Events crossing shards are scheduled with Kernel.AtCross, which
//     buffers them into a per-(src,dst) mailbox; mailboxes merge into the
//     destination heaps at the barrier. Cross events carry band-1 keys —
//     (owner, per-owner counter), a pure function of the owning rank's own
//     execution — so their firing order does not depend on how ranks are
//     packed into shards, or on whether shards exist at all: the serial
//     kernel uses the same keys at the same call sites.
//   - Zero-latency rank->fabric interactions (a NIC handing a descriptor
//     to the topology engine at the same instant) cannot satisfy the
//     lookahead bound, so the topology engine runs on a dedicated fabric
//     stage: after the rank shards' barrier, the fabric kernel executes
//     its events below the same horizon — including the ingress merged a
//     moment ago — and its egress (>= one link latency away) merges back
//     before the next round. Two stages per round, both deterministic.
//
// The zero value is not usable; call NewShards.
type Shards struct {
	ks      []*Kernel // rank shards [0..n-1], fabric stage at [n]
	n       int       // number of rank shards
	shardOf []int32   // rank -> shard index

	lookahead Time

	// outbox[src][dst] buffers cross events produced by shard src for shard
	// dst within the current round. Each shard appends only to its own row
	// during execution, so rows never race; rows are swept (and reused) at
	// the barriers.
	outbox [][][]event

	maxEvents uint64
	maxTime   Time
	started   bool
}

// NewShards builds a shard group from a rank->shard assignment: assign[r]
// is the shard index of rank r, with indices forming the contiguous range
// 0..max(assign). The caller must keep ranks of one fabric node on one
// shard (intranode interactions are direct) — mpi.World derives such an
// assignment from the fabric's node layout.
func NewShards(assign []int) *Shards {
	if len(assign) == 0 {
		panic("sim: NewShards: empty assignment")
	}
	n := 0
	for r, sh := range assign {
		if sh < 0 {
			panic(fmt.Sprintf("sim: NewShards: rank %d has negative shard %d", r, sh))
		}
		if sh+1 > n {
			n = sh + 1
		}
	}
	s := &Shards{n: n, shardOf: make([]int32, len(assign))}
	for r, sh := range assign {
		s.shardOf[r] = int32(sh)
	}
	s.ks = make([]*Kernel, n+1)
	for i := range s.ks {
		k := NewKernel()
		k.group = s
		k.shardID = i
		s.ks[i] = k
	}
	s.outbox = make([][][]event, n+1)
	for i := range s.outbox {
		s.outbox[i] = make([][]event, n+1)
	}
	return s
}

// SetLookahead fixes the round lookahead: the minimum virtual latency of
// any cross-shard event edge. Must be positive and set before Run.
func (s *Shards) SetLookahead(l Time) {
	if l <= 0 {
		panic(fmt.Sprintf("sim: lookahead must be positive, got %d", l))
	}
	s.lookahead = l
}

// KernelFor returns the kernel owning rank r.
func (s *Shards) KernelFor(r int) *Kernel { return s.ks[s.shardOf[r]] }

// FabricKernel returns the dedicated fabric-stage kernel (the topology
// engine's home; unused — and empty — on the crossbar).
func (s *Shards) FabricKernel() *Kernel { return s.ks[s.n] }

// shardFor maps a cross-event destination (a rank, or -1 for the fabric
// stage) to its shard index.
func (s *Shards) shardFor(dst int) int {
	if dst < 0 {
		return s.n
	}
	return int(s.shardOf[dst])
}

// SetWatchdog arms the group's hang protection; semantics match
// Kernel.SetWatchdog. The virtual-time budget aborts with exactly the
// serial kernel's error (the first offending instant is the global minimum,
// checked at the round boundary); the event budget is checked once per
// round, so its abort point — never its presence — may differ from serial
// by up to one round's events.
func (s *Shards) SetWatchdog(maxEvents uint64, maxTime Time) {
	s.maxEvents = maxEvents
	s.maxTime = maxTime
}

// AddDiagProvider registers fn on every shard (reports are built by the
// coordinator, one shard at a time, so fn needs no locking).
func (s *Shards) AddDiagProvider(fn func(*Proc) string) {
	for _, k := range s.ks {
		k.AddDiagProvider(fn)
	}
}

// Events returns the total number of events processed across all shards.
func (s *Shards) Events() uint64 {
	var n uint64
	for _, k := range s.ks {
		n += k.nEvents
	}
	return n
}

// minNext returns the earliest pending event time across all shards.
func (s *Shards) minNext() (Time, bool) {
	min, ok := Time(math.MaxInt64), false
	for _, k := range s.ks {
		if t, has := k.nextAt(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// mergeFrom drains shard src's outbox row into the destination heaps. Push
// order cannot influence pop order — band-1 keys are unique and totally
// ordered — so merging is just a heap insert per event. The lookahead
// invariant (a merged event never activates below anything its destination
// already executed) is asserted per event; a violation is a scheduling-site
// bug, not a recoverable condition.
func (s *Shards) mergeFrom(src int) {
	row := s.outbox[src]
	for dst, evs := range row {
		if len(evs) == 0 {
			continue
		}
		dk := s.ks[dst]
		for _, e := range evs {
			if e.at < dk.now {
				panic(fmt.Sprintf("sim: lookahead violation: shard %d sent event %s at t=%d to shard %d already at t=%d",
					src, e.fnName(), e.at, dst, dk.now))
			}
			dk.push(e)
		}
		for i := range evs {
			evs[i] = event{}
		}
		row[dst] = evs[:0]
	}
}

// fnName names an event's callback for the lookahead-violation panic, which
// otherwise gives no hint of which scheduling site broke the bound.
func (e *event) fnName() string {
	if e.fn == nil {
		return "<none>"
	}
	p := reflect.ValueOf(e.fn).Pointer()
	if fn, ok := e.arg.(func()); ok { // the At form: name what runFunc runs
		p = reflect.ValueOf(fn).Pointer()
	}
	if f := runtime.FuncForPC(p); f != nil {
		return f.Name()
	}
	return "<unknown>"
}

// Run executes the simulation to completion across the shards. Error
// semantics mirror Kernel.Run: proc panics, events scheduled in the past,
// watchdog budgets and deadlock all surface as errors, with the same
// messages as the serial kernel (the event-budget abort point aside, see
// SetWatchdog).
func (s *Shards) Run() error {
	if s.started {
		return fmt.Errorf("sim: kernel already ran")
	}
	s.started = true
	if s.lookahead <= 0 {
		panic("sim: Shards.Run without SetLookahead")
	}
	defer runtime.Gosched() // as Kernel.Run does (yieldEvery)
	err := s.rounds()
	if err != nil {
		// Like Kernel.Run: unwind the procs still parked, shard by shard, all
		// from this goroutine (the workers have nothing left to do).
		for _, k := range s.ks {
			k.reap()
		}
	}
	return err
}

// rounds is the barrier-synchronized round loop of Run.
func (s *Shards) rounds() error {
	// Persistent shard workers, one per rank shard beyond the first; shard 0
	// runs on the coordinator goroutine (with one shard — or one busy shard
	// — the round degenerates to an inline call, no handoffs). The channels
	// carry the round horizon down and completion back, which also gives the
	// merges their happens-before edges.
	nw := s.n - 1
	start := make([]chan Time, nw)
	done := make(chan struct{}, nw)
	for i := 0; i < nw; i++ {
		start[i] = make(chan Time, 1)
		go func(k *Kernel, st chan Time) {
			for h := range st {
				k.runRound(h)
				done <- struct{}{}
			}
		}(s.ks[i+1], start[i])
	}
	defer func() {
		for _, st := range start {
			close(st)
		}
	}()

	fab := s.ks[s.n]
	for {
		minNext, ok := s.minNext()
		if !ok {
			break
		}
		if s.maxTime > 0 && minNext > s.maxTime {
			return fmt.Errorf("sim: watchdog: virtual time %d exceeded horizon %d\n%s",
				minNext, s.maxTime, s.report())
		}
		horizon := minNext + s.lookahead

		// Stage A: rank shards in parallel.
		for i := 0; i < nw; i++ {
			start[i] <- horizon
		}
		s.ks[0].runUntil(horizon)
		for i := 0; i < nw; i++ {
			<-done
		}
		for _, k := range s.ks[1:s.n] {
			if r := k.crash; r != nil {
				panic(r)
			}
		}
		if err := s.firstFail(); err != nil {
			return err
		}
		for i := 0; i < s.n; i++ {
			s.mergeFrom(i)
		}

		// Stage B: the fabric stage, horizon unchanged — it may consume the
		// same-instant ingress merged above; everything it emits toward the
		// ranks is at least one link latency (>= lookahead) away.
		fab.runUntil(horizon)
		if fab.fail != nil {
			return fab.fail
		}
		s.mergeFrom(s.n)

		if s.maxEvents > 0 && s.Events() > s.maxEvents {
			return fmt.Errorf("sim: watchdog: event budget %d exhausted at t=%d (possible livelock)\n%s",
				s.maxEvents, s.maxNow(), s.report())
		}
	}

	if stuck := s.parked(); len(stuck) > 0 {
		return fmt.Errorf("sim: deadlock at t=%d: parked procs with empty event queue: %s\n%s",
			s.maxNow(), strings.Join(stuck, ", "), s.report())
	}
	return nil
}

// runRound is runUntil on a worker goroutine. A kernel-context panic there
// would kill the process from a goroutine nobody can recover on; it is kept
// in k.crash for the coordinator to re-raise from Shards.Run, where the
// serial kernel raises it from Run.
func (k *Kernel) runRound(horizon Time) {
	defer func() {
		if r := recover(); r != nil {
			k.crash = r
		}
	}()
	k.runUntil(horizon)
}

// firstFail returns the first shard failure in shard order.
func (s *Shards) firstFail() error {
	for _, k := range s.ks {
		if k.fail != nil {
			return k.fail
		}
	}
	return nil
}

// maxNow returns the latest shard clock — the time of the last event
// executed anywhere, matching the serial kernel's clock at the same point.
func (s *Shards) maxNow() Time {
	var t Time
	for _, k := range s.ks {
		if k.now > t {
			t = k.now
		}
	}
	return t
}

// parked lists blocked procs across all shards, sorted like Kernel.parked.
func (s *Shards) parked() []string {
	var names []string
	for _, k := range s.ks {
		names = append(names, k.parked()...)
	}
	sort.Strings(names)
	return names
}

// report builds the aggregated diagnostic block: shards are visited in
// order, and ranks are assigned to shards in contiguous blocks, so the
// sections come out in global rank order — byte-identical to the serial
// kernel's report.
func (s *Shards) report() string {
	var b strings.Builder
	b.WriteString("blocked procs:\n")
	n := 0
	for _, k := range s.ks {
		n += k.reportInto(&b)
	}
	if n == 0 {
		b.WriteString("  (none)\n")
	}
	return strings.TrimRight(b.String(), "\n")
}
