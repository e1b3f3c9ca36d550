package sim

import (
	"fmt"
	"strings"
	"testing"
)

// burstRec is one recorded event of the burst determinism test: the
// destination slot it lands in and the label it appends.
type burstRec struct {
	dst   int
	label string
}

// burstFan is how many times every rank of the burst program repeats each of
// its emissions: 32 puts 96 events into every rank's t=15 instant, so even
// with one rank per shard the instant is several times deeper than the depth
// from which the event queue files band-0 events under its wheels.
const burstFan = 32

// burstRun executes the same-timestamp burst program on nShards kernels
// (<= 1 = one serial kernel) and returns the per-destination record
// sequences. The program: every rank r has a band-0 event at t=10 that
// emits 2*burstFan same-instant cross events (band 1, owner r) toward ranks
// (r+1)%n and (r+3)%n at t=15, plus burstFan local band-0 "ticks" at t=15.
// Every t=15 slot therefore mixes band-0 events with band-1 arrivals from
// several owners — the serial tiebreak (band 0 first, then owner order,
// then per-owner emission order) must reproduce bit-for-bit at any shard
// count.
func burstRun(t *testing.T, ranks, nShards int) [][]string {
	t.Helper()
	const (
		emitAt    = Time(10)
		lookahead = Time(5)
	)
	recs := make([][]string, ranks)
	record := func(x any) {
		p := x.(*burstRec)
		recs[p.dst] = append(recs[p.dst], p.label)
	}

	var sh *Shards
	var serial *Kernel
	kernelFor := func(r int) *Kernel { return serial }
	if nShards > 1 {
		assign := make([]int, ranks)
		for r := range assign {
			assign[r] = r * nShards / ranks
		}
		sh = NewShards(assign)
		sh.SetLookahead(lookahead)
		kernelFor = sh.KernelFor
	} else {
		serial = NewKernel()
	}

	for r := 0; r < ranks; r++ {
		r := r
		k := kernelFor(r)
		k.At(emitAt, func() {
			for i := 0; i < burstFan; i++ {
				for j, d := range []int{(r + 1) % ranks, (r + 3) % ranks} {
					k.AtCross(emitAt+lookahead, record,
						&burstRec{dst: d, label: fmt.Sprintf("cross %d->%d #%d.%d", r, d, i, j)}, r, d)
				}
			}
		})
		for i := 0; i < burstFan; i++ {
			k.AtCall(emitAt+lookahead, record, &burstRec{dst: r, label: fmt.Sprintf("tick %d #%d", r, i)})
		}
	}

	var err error
	if sh != nil {
		err = sh.Run()
	} else {
		err = serial.Run()
	}
	if err != nil {
		t.Fatalf("burst run (%d shards): %v", nShards, err)
	}
	return recs
}

// Satellite: cross events emitted at identical timestamps from many owners
// must interleave with local band-0 events in the same order at every shard
// count — including the degenerate serial kernel.
func TestShardsSameTimestampBurstMatchesSerial(t *testing.T) {
	const ranks = 8
	want := burstRun(t, ranks, 0)
	for r, seq := range want {
		if len(seq) != 3*burstFan {
			t.Fatalf("rank %d: want %d records (%d ticks + %d cross), got %v", r, 3*burstFan, burstFan, 2*burstFan, seq)
		}
		for i, label := range seq {
			if strings.HasPrefix(label, "tick") != (i < burstFan) {
				t.Fatalf("rank %d: every band-0 tick must fire before the band-1 arrivals, got %v", r, seq)
			}
		}
	}
	for _, nShards := range []int{1, 2, 4, 8} {
		got := burstRun(t, ranks, nShards)
		for r := range want {
			if fmt.Sprint(got[r]) != fmt.Sprint(want[r]) {
				t.Fatalf("%d shards, rank %d: order diverged from serial\nserial:  %v\nsharded: %v",
					nShards, r, want[r], got[r])
			}
		}
	}
}

// The virtual-time watchdog must abort a sharded run with byte-for-byte the
// serial kernel's error: the offending instant is the global minimum next
// event time, checked at the round boundary.
func TestShardsWatchdogTimeErrorMatchesSerial(t *testing.T) {
	run := func(nShards int) error {
		var sh *Shards
		var k0, k1 *Kernel
		if nShards > 1 {
			sh = NewShards([]int{0, 1})
			sh.SetLookahead(5)
			sh.SetWatchdog(0, 20)
			k0, k1 = sh.KernelFor(0), sh.KernelFor(1)
		} else {
			k0 = NewKernel()
			k0.SetWatchdog(0, 20)
			k1 = k0
		}
		k0.At(10, func() {})
		k1.At(50, func() {}) // beyond the horizon
		if sh != nil {
			return sh.Run()
		}
		return k0.Run()
	}
	serial, sharded := run(0), run(2)
	if serial == nil || sharded == nil {
		t.Fatalf("want watchdog errors, got serial=%v sharded=%v", serial, sharded)
	}
	if serial.Error() != sharded.Error() {
		t.Fatalf("watchdog errors diverged\nserial:  %v\nsharded: %v", serial, sharded)
	}
}

// Deadlock and virtual-time watchdog reports of a two-shard run are
// byte-identical to the serial kernel's, call sites included: each shard's
// goroutine procs are visited from the coordinator, in rank order. Ranks 0-2
// are goroutine procs (rank 1 spins under the watchdog), rank 3 a task.
func TestShardsReportsMatchSerial(t *testing.T) {
	run := func(nShards int, watchdog bool) string {
		var sh *Shards
		serial := NewKernel()
		kernelFor := func(int) *Kernel { return serial }
		if nShards > 1 {
			sh = NewShards([]int{0, 0, 1, 1})
			sh.SetLookahead(5)
			kernelFor = sh.KernelFor
		}
		for r := 0; r < 3; r++ {
			never := NewSignal(kernelFor(r))
			spin := watchdog && r == 1
			kernelFor(r).Spawn(fmt.Sprintf("rank%d", r), func(p *Proc) {
				for spin {
					p.Sleep(7)
				}
				p.Sleep(Time(r + 1))
				never.Wait(p, "never-fired")
			})
		}
		kernelFor(3).SpawnTask("rank3", &parityTask{sig: NewSignal(kernelFor(3)), done: new([]Time), state: 1})
		provider := func(p *Proc) string { return "state of " + p.Name() }
		horizon := Time(0) // disabled
		if watchdog {
			horizon = 40
		}
		var err error
		if sh != nil {
			sh.AddDiagProvider(provider)
			sh.SetWatchdog(0, horizon)
			err = sh.Run()
		} else {
			serial.AddDiagProvider(provider)
			serial.SetWatchdog(0, horizon)
			err = serial.Run()
		}
		if err == nil {
			t.Fatalf("%d shards, watchdog %v: want an error", nShards, watchdog)
		}
		return err.Error()
	}
	for _, watchdog := range []bool{false, true} {
		want, got := run(0, watchdog), run(2, watchdog)
		if got != want {
			t.Fatalf("watchdog %v: reports diverged\nserial:\n%s\nsharded:\n%s", watchdog, want, got)
		}
		if n := strings.Count(want, " at internal/sim/shards_test.go:"); n != 3 {
			t.Fatalf("watchdog %v: %d call sites, want one per goroutine proc (3):\n%s", watchdog, n, want)
		}
	}
}

// A lookahead violation — a cross event activating below its destination
// shard's clock — is a scheduling-site bug and must panic loudly rather
// than silently reorder history.
func TestShardsLookaheadViolationPanics(t *testing.T) {
	sh := NewShards([]int{0, 1})
	sh.SetLookahead(10)
	k0 := sh.KernelFor(0)
	// Rank 1 has events at t=0 and t=25; rank 0's t=24 event emits a cross
	// event at t=24 — only 0 ahead, below the declared lookahead of 10 —
	// so by the time it merges, shard 1 has already executed t=25 inside
	// the same round (horizon = 24 + 10 covers both).
	k1 := sh.KernelFor(1)
	k1.At(0, func() {})
	k1.At(25, func() {})
	k0.At(24, func() {
		k0.AtCross(24, func(any) {}, nil, 0, 1) // below lookahead: illegal
	})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "lookahead violation") {
			t.Fatalf("want lookahead-violation panic, got %v", r)
		}
	}()
	_ = sh.Run()
}

// Satellite: Drain honors the watchdog budgets with Run's error shapes, and
// the budgets accumulate across Drain calls.
func TestDrainHonorsWatchdog(t *testing.T) {
	k := NewKernel()
	k.SetWatchdog(100, 0)
	var chain func()
	chain = func() { k.At(k.Now()+1, chain) }
	k.At(k.Now()+1, chain)
	err := k.Drain()
	if err == nil || !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("want event-budget error from Drain, got %v", err)
	}

	// Virtual-time budget.
	kt := NewKernel()
	kt.SetWatchdog(0, 30)
	kt.At(10, func() {})
	if err := kt.Drain(); err != nil {
		t.Fatalf("healthy drain: %v", err)
	}
	kt.At(50, func() {})
	err = kt.Drain()
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("want horizon error from Drain, got %v", err)
	}

	// The event budget accumulates across Drain calls, exactly as it would
	// across one Run.
	ka := NewKernel()
	ka.SetWatchdog(10, 0)
	pump := func() error {
		for i := 0; i < 6; i++ {
			ka.AfterCall(1, func(any) {}, nil)
		}
		return ka.Drain()
	}
	if err := pump(); err != nil {
		t.Fatalf("first drain within budget: %v", err)
	}
	err = pump()
	if err == nil || !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("second drain must exhaust the accumulated budget, got %v", err)
	}
}

// BenchmarkHeapBurst measures the event heap under same-timestamp bursts:
// many band-0 and band-1 events at one instant, the tiebreak-heavy pattern
// the sharded merge leans on.
func BenchmarkHeapBurst(b *testing.B) {
	k := NewKernel()
	nop := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := k.Now() + 1
		for j := 0; j < 128; j++ {
			k.AtCall(at, nop, nil)
			k.AtCross(at, nop, nil, j%8, 0)
		}
		if err := k.Drain(); err != nil {
			b.Fatal(err)
		}
	}
}
