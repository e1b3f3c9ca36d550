package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fuzz"
	"repro/internal/kvstore"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Layer drivers: fixed-size loops over one layer's public functions, timed
// in host CPU. They mirror the shapes of internal/bench/perf.go (event
// chain, yield round trip, task step, packet pump, signal pump) so the
// numbers are comparable with results/BENCH_trajectory.json, and add the
// shapes perf.go lacks. Every timing is the median of driverBatches
// identical batches, never a single pass; counts marked exact repeat
// bit-for-bit.
const driverBatches = 5

// drivers runs every layer driver and returns its metrics by name. size
// scales every op count (1 = the benchmark, 0.01 = the unit test).
func drivers(size float64) map[string]float64 {
	d := &driverRun{size: size, out: map[string]float64{}}
	d.sim()
	d.fabric()
	d.topo()
	d.mpi()
	d.core()
	d.kvstore()
	d.fuzz()
	d.misc()
	return d.out
}

type driverRun struct {
	size float64
	out  map[string]float64
}

// n scales an op count, keeping at least floor ops.
func (d *driverRun) n(ops, floor int) int {
	if s := int(float64(ops) * d.size); s > floor {
		return s
	}
	return floor
}

// timed returns the median over batches of the host CPU nanoseconds f takes.
func timed(batches int, f func()) float64 {
	xs := make([]float64, batches)
	for i := range xs {
		c0 := cpuTime()
		f()
		xs[i] = float64(cpuTime() - c0)
	}
	return median(xs)
}

// mallocsOf returns the heap objects f allocates.
func mallocsOf(f func()) float64 {
	o0, _, _ := heapCounters()
	f()
	o1, _, _ := heapCounters()
	return float64(o1 - o0)
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmarks: layer driver failed: %v", err))
	}
}

// --- sim -------------------------------------------------------------- //

// chain is a self-rescheduling event: each firing costs one pop, one
// dispatch and one push at the given stride.
type chain struct {
	k      *sim.Kernel
	left   int
	stride sim.Time
}

func chainStep(x any) {
	c := x.(*chain)
	if c.left--; c.left > 0 {
		c.k.AfterCall(c.stride, chainStep, c)
	}
}

// yieldTask re-arms a same-time wake left times, then parks on its signal
// so the same task can be pumped again (perf.go's perfYieldTask).
type yieldTask struct {
	left int
	sig  *sim.Signal
}

func (t *yieldTask) Step(p *sim.Proc) {
	if t.left == 0 {
		t.sig.Wait(p, "idle")
		return
	}
	t.left--
	p.TaskYield()
}

type exitTask struct{}

func (exitTask) Step(p *sim.Proc) { p.TaskExit() }

// handoffNs is one Proc.Yield round trip through the direct-handoff
// scheduler: park, wake event, resume.
func handoffNs(yields int) float64 {
	return timed(driverBatches, func() {
		k := sim.NewKernel()
		k.Spawn("yielder", func(p *sim.Proc) {
			for i := 0; i < yields; i++ {
				p.Yield()
			}
		})
		must(k.Run())
	}) / float64(yields)
}

func (d *driverRun) sim() {
	events := d.n(1_000_000, 1000)
	k := sim.NewKernel()
	c := &chain{k: k, stride: 1}
	pumpChain := func() {
		c.left = events
		k.AfterCall(1, chainStep, c)
		must(k.Drain())
	}
	pumpChain() // warm-up: heap storage
	d.out["sim.event_ns"] = timed(driverBatches, pumpChain) / float64(events)
	d.out["sim.allocs_per_event"] = mallocsOf(pumpChain) / float64(events)

	// 4096 interleaved chains: every pop and push works on a 4096-deep heap.
	const depth = 4096
	dk := sim.NewKernel()
	dc := &chain{k: dk, stride: depth}
	d.out["sim.heap4k_event_ns"] = timed(driverBatches, func() {
		dc.left = events
		for i := 0; i < depth; i++ {
			dk.AfterCall(sim.Time(1+i), chainStep, dc)
		}
		must(dk.Drain())
	}) / float64(events)

	steps := d.n(1_000_000, 1000)
	tk := sim.NewKernel()
	ty := &yieldTask{sig: sim.NewSignal(tk)}
	tk.SpawnTask("yielder", ty)
	must(tk.Drain()) // park on the signal
	pumpTask := func() {
		ty.left = steps
		ty.sig.Fire()
		must(tk.Drain())
	}
	pumpTask() // warm-up: wake-list recycling
	d.out["sim.task_step_ns"] = timed(driverBatches, pumpTask) / float64(steps)

	yields := d.n(100_000, 100)
	h1 := handoffNs(yields)
	d.out["sim.handoff_ns"] = h1
	prev := runtime.GOMAXPROCS(2)
	d.out["sim.handoff_gp2_ratio"] = handoffNs(yields) / h1
	runtime.GOMAXPROCS(prev)

	procs := d.n(20_000, 100)
	d.out["sim.spawn_exit_us"] = timed(driverBatches, func() {
		k := sim.NewKernel()
		for i := 0; i < procs; i++ {
			k.Spawn("p", func(*sim.Proc) {})
		}
		must(k.Run())
	}) / float64(procs) / 1e3

	fires := d.n(1_000_000, 1000)
	d.out["sim.timer_ns"] = timed(driverBatches, func() {
		k := sim.NewKernel()
		left := fires
		var t *sim.Timer
		t = k.NewTimer(func() {
			if left--; left > 0 {
				t.Reset(1)
			}
		})
		t.Reset(1)
		must(k.Drain())
	}) / float64(fires)

	// Serial vs 2 kernel shards on one 512-rank cell at GOMAXPROCS=2, wall
	// clock: ROADMAP's "record serial vs -shards 2 on this host". Above 1
	// means sharding loses here. Restores the shard setting itself.
	ranks, batches := scaleRanks, 3
	if d.size < 1 {
		ranks, batches = 64, 1
	}
	prev = runtime.GOMAXPROCS(2)
	ratios := make([]float64, batches)
	for i := range ratios {
		var p bench.KernelPerf
		p.MeasureScaleSpeedup(ranks, 1, 2)
		ratios[i] = p.ScaleShardedMs / p.ScaleSerialMs
	}
	runtime.GOMAXPROCS(prev)
	d.out["sim.shard2_ratio"] = median(ratios)
}

// --- fabric ----------------------------------------------------------- //

// pump returns a function that sends one packet 0 -> 1 and drains.
func pump(k *sim.Kernel, nw *fabric.Network, kind fabric.Kind, size int64) func() {
	nw.SetHandler(1, func(*fabric.Packet) {})
	return func() {
		pkt := nw.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Kind, pkt.Size = 0, 1, kind, size
		pkt.Arg[3] = 1 // stable region key: registration-cache hit after warm-up
		nw.Send(pkt)
		must(k.Drain())
	}
}

func repeat(n int, f func()) func() {
	return func() {
		for i := 0; i < n; i++ {
			f()
		}
	}
}

func (d *driverRun) fabric() {
	packets := d.n(100_000, 100)

	k := sim.NewKernel()
	send := pump(k, fabric.NewNetwork(k, 2, bench.Config()), fabric.KindPutData, 4096)
	repeat(1000, send)() // warm-up: pools, registration cache
	d.out["fabric.packet_ns"] = timed(driverBatches, repeat(packets, send)) / float64(packets)
	d.out["fabric.allocs_per_packet"] = mallocsOf(repeat(packets, send)) / float64(packets)

	cfg := bench.Config()
	cfg.Channels = 2
	k = sim.NewKernel()
	send = pump(k, fabric.NewNetwork(k, 2, cfg), fabric.KindSignal, 16)
	repeat(1000, send)()
	d.out["fabric.signal_ns"] = timed(driverBatches, repeat(packets, send)) / float64(packets)

	cfg.Channels = 4
	k = sim.NewKernel()
	send = pump(k, fabric.NewNetwork(k, 2, cfg), fabric.KindPutData, 1<<20)
	puts := d.n(20_000, 20)
	repeat(100, send)()
	d.out["fabric.stripe_ns_per_mb"] = timed(driverBatches, repeat(puts, send)) / float64(puts)

	// The fault path live: 1 % drops repaired by the go-back-N ARQ. The
	// retransmit count is a pure function of the profile seed: exact.
	var retx int64
	d.out["fabric.lossy_packet_ns"] = timed(driverBatches, func() {
		k := sim.NewKernel()
		nw := fabric.NewNetwork(k, 2, bench.Config())
		fp := fabric.DefaultFaultProfile(1)
		fp.Drop = 0.01
		nw.EnableFaults(fp)
		repeat(packets, pump(k, nw, fabric.KindPutData, 4096))()
		retx = nw.RelStats(0).Retransmits
	}) / float64(packets)
	d.out["fabric.retx_per_kpkt"] = 1e3 * float64(retx) / float64(packets)

	ranks := d.n(scaleRanks, 16)
	cfg = bench.Config()
	cfg.Topo = bench.ScaleTopo(ranks)
	d.out["fabric.build_us_per_rank"] = timed(driverBatches, func() {
		fabric.NewNetwork(sim.NewKernel(), ranks, cfg)
	}) / float64(ranks) / 1e3
}

// --- topo ------------------------------------------------------------- //

func (d *driverRun) topo() {
	ranks := d.n(scaleRanks, 16)
	cfg := bench.Config()
	spec := bench.ScaleTopo(ranks)
	spec.LinkBytesPerUs, spec.HopLatency = cfg.BytesPerUs, cfg.Alpha/2 // the fabric's calibration
	var g *topo.Graph
	d.out["topo.build_ms"] = timed(driverBatches, func() {
		var err error
		g, err = topo.Build(spec, ranks)
		must(err)
	}) / 1e6

	// The scale figure's traffic without the layers above: every host sends
	// one chunk to each of its log2(n) strided partners, all at once.
	rounds := d.n(8, 1)
	var sum topo.Summary
	ns := timed(driverBatches, func() {
		k := sim.NewKernel()
		e := topo.NewEngine(k, g, func(sim.Time, any, int) {})
		for r := 0; r < rounds; r++ {
			for src := 0; src < ranks; src++ {
				for stride := ranks / 2; stride >= 1; stride /= 2 {
					e.Send(nil, src, (src+stride)%ranks, bench.ScaleChunk)
				}
			}
			must(k.Drain())
		}
		sum = e.Summary()
	})
	d.out["topo.hop_ns"] = ns / float64(sum.Forwarded)
	d.out["topo.queued_us_per_pkt"] = float64(sum.QueuedTime) / 1e3 / float64(sum.Delivered)
	d.out["topo.stalls_per_kpkt"] = 1e3 * float64(sum.CreditStalls) / float64(sum.Delivered)
}

// --- mpi -------------------------------------------------------------- //

// runWorld runs body on a fresh serial n-rank world.
func runWorld(n int, cfg fabric.Config, body func(r *mpi.Rank, rt *core.Runtime)) *mpi.World {
	w := mpi.NewWorld(n, cfg)
	rt := core.NewRuntime(w)
	must(w.Run(func(r *mpi.Rank) { body(r, rt) }))
	return w
}

func (d *driverRun) mpi() {
	trips := d.n(10_000, 10)
	d.out["mpi.pingpong_ns"] = timed(driverBatches, func() {
		runWorld(2, bench.Config(), func(r *mpi.Rank, _ *core.Runtime) {
			for i := 0; i < trips; i++ {
				if r.ID == 0 {
					r.SendMsg(1, 1, nil, 8)
					r.RecvMsg(1, 2)
				} else {
					r.RecvMsg(0, 1)
					r.SendMsg(0, 2, nil, 8)
				}
			}
		})
	}) / float64(trips)

	const ranks = 64
	rounds := d.n(200, 2)
	collective := func(op func(r *mpi.Rank)) float64 {
		return timed(driverBatches, func() {
			runWorld(ranks, bench.Config(), func(r *mpi.Rank, _ *core.Runtime) {
				for i := 0; i < rounds; i++ {
					op(r)
				}
			})
		}) / float64(rounds*ranks)
	}
	d.out["mpi.barrier64_ns_per_rank"] = collective(func(r *mpi.Rank) { r.Barrier() })
	d.out["mpi.allreduce64_ns_per_rank"] = collective(func(r *mpi.Rank) { r.AllreduceInt64(mpi.OpSum, int64(r.ID)) })

	worlds := d.n(40, 1)
	d.out["mpi.proc_world_us_per_rank"] = timed(driverBatches, func() {
		for i := 0; i < worlds; i++ {
			runWorld(ranks, bench.Config(), func(*mpi.Rank, *core.Runtime) {})
		}
	}) / float64(worlds*ranks) / 1e3

	taskRanks := d.n(scaleRanks, 16)
	cfg := bench.Config()
	cfg.Topo = bench.ScaleTopo(taskRanks)
	d.out["mpi.task_world_us_per_rank"] = timed(driverBatches, func() {
		w := mpi.NewWorld(taskRanks, cfg)
		core.NewRuntime(w)
		must(w.RunTasks(func(*mpi.Rank) sim.Task { return exitTask{} }))
	}) / float64(taskRanks) / 1e3
}

// --- core ------------------------------------------------------------- //

// epochRun runs a 2-rank world in which rank 0 drives the given number of
// one-put epochs against rank 1, and returns the world.
func epochRun(epochs int, opt core.WinOptions, origin, target func(win *core.Window, r *mpi.Rank)) *mpi.World {
	opt.ShapeOnly = true
	return runWorld(2, bench.Config(), func(r *mpi.Rank, rt *core.Runtime) {
		win := rt.CreateWindow(r, 4096, opt)
		for i := 0; i < epochs; i++ {
			if r.ID == 0 {
				origin(win, r)
			} else if target != nil {
				target(win, r)
			}
		}
		r.Barrier()
		win.Quiesce()
	})
}

var (
	peer0 = []int{0}
	peer1 = []int{1}
)

func gatsOrigin(win *core.Window, _ *mpi.Rank) {
	win.Start(peer1)
	win.Put(1, 0, nil, 8)
	win.Complete()
}

func gatsTarget(win *core.Window, _ *mpi.Rank) {
	win.Post(peer0)
	win.WaitEpoch()
}

func (d *driverRun) core() {
	epochs := d.n(5000, 10)
	perEpoch := func(opt core.WinOptions, origin, target func(*core.Window, *mpi.Rank)) float64 {
		return timed(driverBatches, func() { epochRun(epochs, opt, origin, target) }) / float64(epochs)
	}
	d.out["core.gats_epoch_ns"] = perEpoch(core.WinOptions{Mode: core.ModeNew}, gatsOrigin, gatsTarget)
	d.out["core.vanilla_gats_epoch_ns"] = perEpoch(core.WinOptions{Mode: core.ModeVanilla}, gatsOrigin, gatsTarget)
	d.out["core.signal_gats_epoch_ns"] = perEpoch(core.WinOptions{Mode: core.ModeNew, Transport: core.TransportSignal}, gatsOrigin, gatsTarget)
	d.out["core.gats_nb_epoch_ns"] = perEpoch(core.WinOptions{Mode: core.ModeNew},
		func(win *core.Window, r *mpi.Rank) {
			win.IStart(peer1)
			win.Put(1, 0, nil, 8)
			r.Wait(win.IComplete())
		},
		func(win *core.Window, r *mpi.Rank) {
			win.IPost(peer0)
			r.Wait(win.IWait())
		})
	fence := func(win *core.Window, r *mpi.Rank) {
		win.Fence(core.AssertNone)
		if r.ID == 0 {
			win.Put(1, 0, nil, 8)
		}
		win.Fence(core.AssertNoSucceed)
	}
	d.out["core.fence_epoch_ns"] = perEpoch(core.WinOptions{Mode: core.ModeNew}, fence, fence)
	d.out["core.lock_epoch_ns"] = perEpoch(core.WinOptions{Mode: core.ModeNew},
		func(win *core.Window, _ *mpi.Rank) {
			win.Lock(1, true)
			win.Put(1, 0, nil, 8)
			win.Unlock(1)
		}, nil)
	d.out["core.flush_put_ns"] = timed(driverBatches, func() {
		runWorld(2, bench.Config(), func(r *mpi.Rank, rt *core.Runtime) {
			win := rt.CreateWindow(r, 4096, core.WinOptions{Mode: core.ModeFlush, ShapeOnly: true})
			if r.ID == 0 {
				win.LockAll()
				for i := 0; i < epochs; i++ {
					win.Put(1, 0, nil, 8)
					r.Wait(win.IFlush(1))
				}
				win.UnlockAll()
			}
			r.Barrier()
			win.Quiesce()
		})
	}) / float64(epochs)

	// Exact per-epoch counts: the difference between a 2N- and an N-epoch
	// run cancels world and window construction.
	var ev1, ev2 uint64
	opt := core.WinOptions{Mode: core.ModeNew}
	m1 := mallocsOf(func() { ev1 = epochRun(epochs, opt, gatsOrigin, gatsTarget).Events() })
	m2 := mallocsOf(func() { ev2 = epochRun(2*epochs, opt, gatsOrigin, gatsTarget).Events() })
	d.out["core.mallocs_per_gats_epoch"] = (m2 - m1) / float64(epochs)
	d.out["core.events_per_gats_epoch"] = float64(ev2-ev1) / float64(epochs)

	// Collective window creation, bracketed on rank 0: between its call and
	// its return every rank's share of the collective runs.
	const ranks, wins = 64, 8
	xs := make([]float64, driverBatches)
	for i := range xs {
		var createNs time.Duration
		runWorld(ranks, bench.Config(), func(r *mpi.Rank, rt *core.Runtime) {
			for j := 0; j < wins; j++ {
				if r.ID == 0 {
					createNs -= cpuTime()
				}
				win := rt.CreateWindow(r, 4096, core.WinOptions{Mode: core.ModeNew, ShapeOnly: true})
				if r.ID == 0 {
					createNs += cpuTime()
				}
				win.Quiesce()
			}
		})
		xs[i] = float64(createNs)
	}
	d.out["core.win_create_us_per_rank"] = median(xs) / (ranks * wins) / 1e3
}

// --- kvstore, fuzz, par, trace ---------------------------------------- //

func (d *driverRun) kvstore() {
	serve := func(opt kvstore.Options) (usPerOp float64, res *kvstore.Result) {
		ops := float64(opt.Clients * opt.OpsPerClient)
		ns := timed(driverBatches, func() { res = kvstore.Run(opt) })
		return ns / ops / 1e3, res
	}
	d.out["kvstore.op_cpu_us"], _ = serve(kvstore.DefaultOptions())
	opt := bench.KVScenarioOptions(core.ModeNew) // the published chaos scenario: one server dies mid-run
	us, res := serve(opt)
	ops := float64(opt.Clients * opt.OpsPerClient)
	d.out["kvstore.chaos_op_cpu_us"] = us
	d.out["kvstore.retries_per_kop"] = 1e3 * float64(res.Retries) / ops
	d.out["kvstore.failover_share"] = float64(res.Failovers) / ops
}

func (d *driverRun) fuzz() {
	seeds := d.n(200, 2)
	progs := make([]*fuzz.Program, seeds)
	results := make([]*fuzz.RunResult, seeds)
	perProgram := func(f func(i int)) float64 {
		return timed(driverBatches, func() {
			for i := 0; i < seeds; i++ {
				f(i)
			}
		}) / float64(seeds) / 1e3
	}
	d.out["fuzz.generate_us"] = perProgram(func(i int) { progs[i] = fuzz.Generate(uint64(i + 1)) })
	d.out["fuzz.execute_us"] = perProgram(func(i int) { results[i] = fuzz.Execute(progs[i], core.ModeNew) })
	d.out["fuzz.verify_us"] = perProgram(func(i int) {
		if problems := fuzz.Verify(progs[i], core.ModeNew, results[i]); len(problems) > 0 {
			panic(fmt.Sprintf("benchmarks: fuzz seed %d failed verification: %v", i+1, problems))
		}
	})
}

func (d *driverRun) misc() {
	// One patterns unit fanned over 2 workers against serial, wall clock at
	// GOMAXPROCS=2: what -workers buys on this host.
	w := findWorkload("patterns")
	if d.size < 1 {
		w = &workload{"patterns", w.calls[:1]}
	}
	unitWall := func(workers int) float64 {
		par.SetWorkers(workers)
		xs := make([]float64, 3)
		for i := range xs {
			start := time.Now()
			runUnit(w, 0, 0, nil, -1)
			xs[i] = float64(time.Since(start))
		}
		return median(xs)
	}
	prevProcs, prevWorkers := runtime.GOMAXPROCS(2), par.Workers()
	d.out["par.w2_speedup"] = unitWall(1) / unitWall(2)
	runtime.GOMAXPROCS(prevProcs)
	par.SetWorkers(prevWorkers)

	// trace.Analyze over a recorded 4-rank GATS timeline.
	epochs := d.n(250, 10)
	rec := trace.NewRecorder()
	world := mpi.NewWorld(4, bench.Config())
	rt := core.NewRuntime(world)
	rec.SetRanks(4)
	rt.SetTracer(rec)
	must(world.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 4096, core.WinOptions{Mode: core.ModeNew, ShapeOnly: true})
		for i := 0; i < epochs; i++ {
			if r.ID == 0 {
				win.Post([]int{1, 2, 3})
				win.WaitEpoch()
			} else {
				win.Start(peer0)
				win.Put(0, 0, nil, 8)
				win.Complete()
			}
		}
		win.Quiesce()
	}))
	events := rec.Events()
	d.out["trace.analyze_us_per_kevent"] = timed(driverBatches, func() { trace.Analyze(events) }) / float64(len(events))
}
