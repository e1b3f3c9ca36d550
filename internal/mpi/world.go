// Package mpi is a minimal MPI-like runtime over the simulated fabric:
// ranks, request objects and Wait, two-sided point-to-point
// communication (eager + rendezvous), a dissemination barrier and a few
// collectives. The one-sided (RMA) layer lives in internal/core and plugs
// into each rank's progress loop so that, as in the paper's design, "an
// RMA-related call progresses pending collective and two-sided
// communications and vice versa".
package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// World is one simulated MPI job: a kernel (or a shard group), a network,
// and n ranks.
type World struct {
	// K is the single serial kernel; nil when the world is sharded. Code
	// that must work in both modes goes through Rank.Kernel / the
	// World-level SetWatchdog, Events and AddDiagProvider wrappers.
	K   *sim.Kernel
	Net *fabric.Network

	sim   simulation // K, or the shard group
	ranks []Rank
	procs []sim.Proc // the ranks' procs, one each once launched
}

// simulation is what runs a world: a serial kernel or a shard group.
type simulation interface {
	SetWatchdog(maxEvents uint64, maxTime sim.Time)
	AddDiagProvider(fn func(*sim.Proc) string)
	Events() uint64
	Run() error
}

// NewWorld creates a job of n ranks over a fresh serial kernel and network.
func NewWorld(n int, cfg fabric.Config) *World {
	return NewWorldShards(n, cfg, 0)
}

// NewWorldShards creates a job of n ranks executing across the given number
// of kernel shards (conservative parallel simulation, sim.Shards); 0 or 1
// shards means the plain serial kernel. Ranks are assigned to shards in
// contiguous node blocks — never splitting a fabric node, whose ranks
// interact at zero latency — and the shard count is silently clamped to the
// node count. Every observable of the run is bit-identical across shard
// counts, including serial.
func NewWorldShards(n int, cfg fabric.Config, shards int) *World {
	// Reject unaddressable worlds before allocating anything: beyond
	// fabric.MaxRanks, rank ids overflow the 18-bit source fields packed
	// into control-message keys (internal/core) and would silently corrupt
	// packet routing. fabric.Config.Validate enforces the same ceiling, but
	// the panic here names the layer the caller actually used.
	if n > fabric.MaxRanks {
		panic(fmt.Sprintf("mpi: world size %d exceeds the %d-rank addressing limit (rank ids are packed into %d-bit packet-key fields)",
			n, fabric.MaxRanks, fabric.RankBits))
	}
	w := &World{}
	var sh *sim.Shards
	if shards > 1 {
		sh = sim.NewShards(shardAssign(n, cfg, shards))
		w.sim, w.Net = sh, fabric.NewNetworkShards(sh, n, cfg)
		sh.SetLookahead(w.Net.Lookahead())
	} else {
		w.K = sim.NewKernel()
		w.sim, w.Net = w.K, fabric.NewNetwork(w.K, n, cfg)
	}
	// A world's ranks and their procs are each one slice; one closure
	// delivers every rank's packets.
	w.ranks, w.procs = make([]Rank, n), make([]sim.Proc, n)
	deliver := func(p *fabric.Packet) { w.ranks[p.Dst].onDeliver(p) }
	for i := range w.ranks {
		k := w.K
		if sh != nil {
			k = sh.KernelFor(i)
		}
		w.ranks[i].init(w, i, k)
		w.Net.SetHandler(i, deliver)
	}
	// Deadlock/watchdog reports include the fabric's view of the blocked
	// rank (Network.Diag): reliability state and the congestion around its
	// node. Contributes nothing when faults are off and the crossbar is in
	// use.
	w.AddDiagProvider(func(p *sim.Proc) string {
		for i := range w.ranks {
			if w.ranks[i].Proc == p {
				return w.Net.Diag(i)
			}
		}
		return ""
	})
	return w
}

// shardAssign maps ranks to shards: whole nodes, contiguous blocks, spread
// as evenly as node granularity allows.
func shardAssign(n int, cfg fabric.Config, shards int) []int {
	nodes := cfg.NodeOf(n-1) + 1
	if shards > nodes {
		shards = nodes
	}
	assign := make([]int, n)
	for r := range assign {
		assign[r] = cfg.NodeOf(r) * shards / nodes
	}
	return assign
}

// SetWatchdog arms the simulation's hang protection (sim.Kernel.SetWatchdog
// / sim.Shards.SetWatchdog).
func (w *World) SetWatchdog(maxEvents uint64, maxTime sim.Time) {
	w.sim.SetWatchdog(maxEvents, maxTime)
}

// Events returns the total number of simulation events processed.
func (w *World) Events() uint64 { return w.sim.Events() }

// AddDiagProvider registers a per-proc diagnostic hook on every kernel.
func (w *World) AddDiagProvider(fn func(*sim.Proc) string) { w.sim.AddDiagProvider(fn) }

// Size returns the number of ranks in the job.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return &w.ranks[i] }

// Run launches body on every rank as a blocking proc (sim.Body: the body
// runs as a coroutine that each wake resumes) and executes the simulation to
// completion. It returns the kernel error, if any (panic or deadlock).
func (w *World) Run(body func(*Rank)) error {
	return w.RunTasks(func(r *Rank) sim.Task { return sim.Body(func(*sim.Proc) { body(r) }) })
}

// RunTasks launches mk(rank) on every rank as a state machine (sim.Task: no
// coroutine, no stack — the fast path for worlds of many thousands of
// ranks) and executes the simulation to completion. Scheduling is identical
// to Run with a body making the same calls at the same virtual times, so
// observables are bit-identical across the two forms. Ranks are launched in
// rank order, each on its proc of the world's one slice.
func (w *World) RunTasks(mk func(r *Rank) sim.Task) error {
	for i := range w.ranks {
		r := &w.ranks[i]
		r.Proc = &w.procs[i]
		r.k.Launch(r.Proc, "rank", i, mk(r))
	}
	return w.sim.Run()
}

// RunProgram runs mk's rank program — a sim.Task that makes one MPI call per
// state and returns while Rank.Pending — on every rank: as task ranks
// (RunTasks) when tasks is set, else as coroutine ranks (Run), whose calls
// never return pending, so a single Step from the body runs the whole
// program. The two forms are bit-identical.
func (w *World) RunProgram(mk func(r *Rank) sim.Task, tasks bool) error {
	if tasks {
		return w.RunTasks(mk)
	}
	return w.Run(func(r *Rank) { mk(r).Step(r.Proc) })
}
