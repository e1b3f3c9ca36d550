package bench

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/sim"
)

// KernelPerf is the machine-readable result of the performance suite behind
// the CI regression gate (cmd/perfgate, results/BENCH_kernel.json). The
// throughput fields are wall-clock dependent and compared with a tolerance;
// the allocation fields are exact budgets and must stay at zero.
type KernelPerf struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Shards     int    `json:"shards"`

	// KernelEventsPerSec is the event-scheduling hot path: a self-
	// rescheduling event chain, so each event costs one push, one pop and
	// one dispatch.
	KernelEventsPerSec   float64 `json:"kernel_events_per_sec"`
	KernelAllocsPerEvent float64 `json:"kernel_allocs_per_event"`

	// Rank-execution hot paths. Handoff is one wake that crosses goroutines:
	// two blocking procs yielding in alternation, so the parking proc runs
	// the other's wake event and passes it the execution token (one
	// goroutine switch per op). SelfWake is a lone blocking proc yielding in
	// a loop: it runs its own wake event and never switches (reported, not
	// gated — it is the event chain plus a function return). TaskStep is one
	// wake of a spawn-free sim.Task state machine. Lower is better, so
	// perfgate gates on the inverted rates; the task step must also stay
	// allocation-free.
	HandoffOpsPerSec    float64 `json:"handoff_ops_per_sec,omitempty"`
	SelfWakeOpsPerSec   float64 `json:"self_wake_ops_per_sec,omitempty"`
	TaskStepOpsPerSec   float64 `json:"task_step_ops_per_sec,omitempty"`
	TaskStepAllocsPerOp float64 `json:"task_step_allocs_per_op"`

	// FabricPacketsPerSec pumps pooled packets through the full NIC
	// pipeline: enqueue, wire occupancy, delivery, credit return.
	FabricPacketsPerSec   float64 `json:"fabric_packets_per_sec"`
	FabricAllocsPerPacket float64 `json:"fabric_allocs_per_packet"`

	// SignalOpsPerSec pumps 16-byte KindSignal packets — the wire form of
	// every grant/done on the counter-signal transport — down the dedicated
	// control rail of a multi-rail NIC; its exact allocation budget is zero
	// (the zero-fault signal hot path must not touch the heap). Zero
	// baselines are ignored by the gate, so the field is backward
	// compatible.
	SignalOpsPerSec   float64 `json:"signal_ops_per_sec,omitempty"`
	SignalAllocsPerOp float64 `json:"signal_allocs_per_op"`

	// FigureRegenMs regenerates a fixed figure sample with the configured
	// worker count; FigureRegenSerialMs is the same sample with one worker.
	FigureRegenMs       float64 `json:"figure_regen_ms"`
	FigureRegenSerialMs float64 `json:"figure_regen_serial_ms"`

	// Scale speedup (optional — cmd/perfgate -scale): one 512-rank scale
	// cell on the serial kernel vs on sharded kernels, same simulation, so
	// the ratio isolates the sharded event kernel's wall-clock win. Zero
	// when the measurement was skipped; the regression gate ignores zero
	// baselines, so the fields are backward compatible.
	ScaleSerialMs  float64 `json:"scale_serial_ms,omitempty"`
	ScaleShardedMs float64 `json:"scale_sharded_ms,omitempty"`
	ScaleSpeedup   float64 `json:"scale_speedup,omitempty"`

	// ScaleCurve (optional — cmd/perfgate -scale-curve) is the memory and
	// throughput footprint of task-mode worlds as the rank count grows:
	// heap bytes retained per rank after the run and kernel events per
	// wall-clock second during it. The per-rank bytes are the figure the
	// goroutine-light refactor moves — 64k blocking ranks would hold 64k
	// goroutine stacks.
	ScaleCurve []ScalePoint `json:"scale_curve,omitempty"`
}

// ScalePoint is one rank count of the scale curve.
type ScalePoint struct {
	Ranks        int     `json:"ranks"`
	BytesPerRank float64 `json:"bytes_per_rank"`
	EventsPerSec float64 `json:"events_per_sec"`
	Ms           float64 `json:"ms"`
}

// perfChain is the self-rescheduling event used by the kernel throughput
// measurement (the same shape as internal/sim's BenchmarkEventChain).
type perfChain struct {
	k    *sim.Kernel
	left int
}

func perfChainStep(x any) {
	c := x.(*perfChain)
	c.left--
	if c.left > 0 {
		c.k.AfterCall(1, perfChainStep, c)
	}
}

// MeasureKernelPerf runs the performance suite and returns its results.
// Wall-clock sensitive: call it on an otherwise idle machine.
func MeasureKernelPerf() KernelPerf {
	p := KernelPerf{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    par.Workers(),
		Shards:     Shards(),
	}

	// Kernel event chain.
	const chainEvents = 2_000_000
	k := sim.NewKernel()
	c := &perfChain{k: k, left: 1000} // warmup
	k.AfterCall(1, perfChainStep, c)
	k.Drain()
	c.left = chainEvents
	k.AfterCall(1, perfChainStep, c)
	start := time.Now()
	k.Drain()
	p.KernelEventsPerSec = chainEvents / time.Since(start).Seconds()
	const perRun = 1000
	p.KernelAllocsPerEvent = testing.AllocsPerRun(20, func() {
		c.left = perRun
		k.AfterCall(1, perfChainStep, c)
		k.Drain()
	}) / perRun

	// Rank-execution round trips: blocking procs yielding in a loop — two
	// of them alternating (every wake hands the token to the other
	// goroutine), then one alone (every wake is its own) — and a task doing
	// the same through TaskYield (pure heap rescheduling, no goroutine).
	const yields = 200_000
	yielders := func(n int) float64 {
		hk := sim.NewKernel()
		for i := 0; i < n; i++ {
			hk.Spawn("yielder", func(pr *sim.Proc) {
				for i := 0; i < yields/n; i++ {
					pr.Yield()
				}
			})
		}
		start := time.Now()
		hk.Drain()
		return yields / time.Since(start).Seconds()
	}
	p.HandoffOpsPerSec = yielders(2)
	p.SelfWakeOpsPerSec = yielders(1)
	tk := sim.NewKernel()
	ty := &perfYieldTask{sig: sim.NewSignal(tk)}
	tk.SpawnTask("yielder", ty)
	tk.Drain() // park on the signal
	pump := func(rounds int) {
		ty.left = rounds
		ty.sig.Fire()
		tk.Drain()
	}
	pump(1000) // warmup: wake-list recycling
	start = time.Now()
	pump(yields)
	p.TaskStepOpsPerSec = yields / time.Since(start).Seconds()
	p.TaskStepAllocsPerOp = testing.AllocsPerRun(20, func() { pump(perRun) }) / perRun

	// Fabric packet pipeline.
	fk := sim.NewKernel()
	nw := fabric.NewNetwork(fk, 2, Config())
	nw.SetHandler(1, func(*fabric.Packet) {})
	fpump := func() {
		pkt := nw.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Kind, pkt.Size = 0, 1, fabric.KindPutData, 4096
		pkt.Arg[3] = 1
		nw.Send(pkt)
		fk.Drain()
	}
	for i := 0; i < 1000; i++ { // warmup: pools, registration cache
		fpump()
	}
	const packets = 200_000
	start = time.Now()
	for i := 0; i < packets; i++ {
		fpump()
	}
	p.FabricPacketsPerSec = packets / time.Since(start).Seconds()
	p.FabricAllocsPerPacket = testing.AllocsPerRun(200, fpump)

	// Counter-signal control path: 16-byte replica writes down the dedicated
	// control rail of a 2-channel NIC (rail selection, per-rail credits and
	// per-rail ARQ state all in the measured loop).
	sk := sim.NewKernel()
	scfg := Config()
	scfg.Channels = 2
	snw := fabric.NewNetwork(sk, 2, scfg)
	snw.SetHandler(1, func(*fabric.Packet) {})
	spump := func() {
		pkt := snw.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Kind, pkt.Size = 0, 1, fabric.KindSignal, 16
		snw.Send(pkt)
		sk.Drain()
	}
	for i := 0; i < 1000; i++ { // warmup: pools, rail tables
		spump()
	}
	const sigs = 200_000
	start = time.Now()
	for i := 0; i < sigs; i++ {
		spump()
	}
	p.SignalOpsPerSec = sigs / time.Since(start).Seconds()
	p.SignalAllocsPerOp = testing.AllocsPerRun(200, spump)

	// Figure regeneration, parallel then serial. FigModes keeps the flush-
	// mode path (core.ModeFlush + the scalable lock protocol) inside the
	// measured workload, so the zero-allocation budgets below are asserted
	// with flush mode compiled in and exercised — a flush-mode change that
	// puts allocations on the kernel or fabric hot path breaks the gate.
	regen := func() {
		Fig2LatePost(4)
		Fig6LateUnlock(4)
		FigModes(4)
		Fig7AAARGats(4)
	}
	start = time.Now()
	regen()
	p.FigureRegenMs = float64(time.Since(start).Microseconds()) / 1000
	prev := par.Workers()
	par.SetWorkers(1)
	start = time.Now()
	regen()
	p.FigureRegenSerialMs = float64(time.Since(start).Microseconds()) / 1000
	par.SetWorkers(prev)
	return p
}

// perfYieldTask re-arms a same-time wake left times, then parks on its
// signal so the same task object can be pumped again: each Step is one
// task-mode scheduling round trip with no spawn in the measured loop.
type perfYieldTask struct {
	left int
	sig  *sim.Signal
}

func (t *perfYieldTask) Step(p *sim.Proc) {
	if t.left == 0 {
		t.sig.Wait(p, "idle")
		return
	}
	t.left--
	p.TaskYield()
}

// MeasureScaleCurve fills p.ScaleCurve: for each rank count, one
// nonblocking-series scale cell on task-mode ranks, reporting retained heap
// bytes per rank and kernel event throughput. Opt-in (cmd/perfgate
// -scale-curve): the 16k+ points take tens of seconds and real memory.
func (p *KernelPerf) MeasureScaleCurve(ranks []int, iters int) {
	for _, n := range ranks {
		p.ScaleCurve = append(p.ScaleCurve, measureScalePoint(n, iters))
	}
}

func measureScalePoint(n, iters int) ScalePoint {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run := newScaleRun(n, SeriesNewNB, iters)
	start := time.Now()
	run.exec(true)
	elapsed := time.Since(start)
	events := run.world.Events()
	runtime.GC()
	runtime.ReadMemStats(&after)
	pt := ScalePoint{
		Ranks:        n,
		EventsPerSec: float64(events) / elapsed.Seconds(),
		Ms:           float64(elapsed.Microseconds()) / 1000,
	}
	// Retained = the world, runtime, windows, counter tables and parked
	// task state; the KeepAlive pins it across the post-run GC.
	if after.HeapAlloc > before.HeapAlloc {
		pt.BytesPerRank = float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
	}
	runtime.KeepAlive(run)
	return pt
}

// MeasureScaleSpeedup times one ranks-rank scale cell (the nonblocking
// series — the heaviest and the one the paper's scaling argument rests on)
// on the serial kernel and again on shardCount kernels, filling the scale
// fields of p. The two runs produce bit-identical figure values; only the
// wall clock differs. Opt-in (cmd/perfgate -scale): a 512-rank cell takes
// seconds, and the speedup is only meaningful on a multi-core runner.
func (p *KernelPerf) MeasureScaleSpeedup(ranks, iters, shardCount int) {
	prev := Shards()
	defer SetShards(prev)

	SetShards(0)
	scaleCell(ranks, SeriesNewNB, 1) // warmup: pools, page cache
	start := time.Now()
	scaleCell(ranks, SeriesNewNB, iters)
	p.ScaleSerialMs = float64(time.Since(start).Microseconds()) / 1000

	SetShards(shardCount)
	scaleCell(ranks, SeriesNewNB, 1)
	start = time.Now()
	scaleCell(ranks, SeriesNewNB, iters)
	p.ScaleShardedMs = float64(time.Since(start).Microseconds()) / 1000

	if p.ScaleShardedMs > 0 {
		p.ScaleSpeedup = p.ScaleSerialMs / p.ScaleShardedMs
	}
}
