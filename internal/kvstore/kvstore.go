// Package kvstore is a replicated, RMA-backed key-value store that runs on
// the full mpi+core+fabric stack and survives injected faults. It is the
// repo's serving-style robustness scenario: where the benchmarks measure
// how fast epochs close, this package measures what survives when they
// don't.
//
// Topology: the first Servers ranks each host one collectively created
// window; the remaining Clients ranks generate seeded open-loop Zipfian
// traffic against them. Key k has its primary copy on server k%S and a
// replica on server (k%S+1)%S, each an 8-byte slot packing a version (with
// the writer's id in the low bits, so concurrent versions never collide)
// above a 24-bit payload. Every window only ever targets its own server
// rank, so a window is exactly one failure domain: the death of server s
// poisons — per client — only that client's window s object, and the
// client recovers around it by re-resolving the key to the replica
// (epoch-versioned membership view, exponential backoff with seeded
// jitter, per-op deadlines, load shedding once the error budget is gone).
//
// All replica and primary updates are OpMax accumulates of the packed
// slot, so copies are monotone under any interleaving and an acknowledged
// write can only ever be superseded by a numerically larger version — the
// property the post-run oracle (oracle.go) checks against the surviving
// servers' memory: zero acknowledged-write loss.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/prog"
	"repro/internal/sim"
)

// Layout constants. A slot is one 8-byte cell: version<<payloadBits | payload.
// The version's low clientBits carry the writing client's index so that two
// clients continuing from the same fetched counter still produce distinct,
// totally ordered versions.
const (
	slotBytes   = 8
	payloadBits = 24
	clientBits  = 10
	payloadMask = 1<<payloadBits - 1
)

// pack builds a slot value from a version and a payload.
func pack(ver uint64, payload uint32) uint64 {
	return ver<<payloadBits | uint64(payload)&payloadMask
}

// verOf extracts the version (including writer bits) from a slot value.
func verOf(slot uint64) uint64 { return slot >> payloadBits }

// counterOf strips the writer bits off a version.
func counterOf(ver uint64) uint64 { return ver >> clientBits }

// nextVer advances the counter of cur's version and stamps the writer.
func nextVer(cur uint64, client int) uint64 {
	return (counterOf(verOf(cur))+1)<<clientBits | uint64(client)
}

// primOff is the offset of key k's primary slot in its home server window.
func primOff(k int) int64 { return int64(k) * slotBytes }

// replOff is the offset of key k's replica slot in the replica's window.
func replOff(keys, k int) int64 { return int64(keys+k) * slotBytes }

// Scenario constants every run shares. Open-loop arrivals: mean
// inter-arrival meanGap, and every burstEvery-th group of burstLen requests
// arrives at meanGap/8 (a burst). Key popularity is Zipfian: the i-th
// hottest key is drawn in proportion to 1/(i+1)^(zipfS/100), the classic
// 0.99. Robustness: epochTimeout is the window watchdog (core layer);
// opDeadline bounds a request's total latency including retries — a request
// that cannot start (or restart) before its deadline is shed; maxRetries
// bounds attempts per request, and backoff doubles from backoffBase up to
// backoffCap with seeded jitter. Together they ride out one server death
// with sub-deadline failover.
const (
	meanGap      = 20 * sim.Microsecond
	burstEvery   = 4
	burstLen     = 8
	zipfS        = 99
	epochTimeout = 400 * sim.Microsecond
	opDeadline   = 4 * sim.Millisecond
	maxRetries   = 4
	backoffBase  = 10 * sim.Microsecond
	backoffCap   = 160 * sim.Microsecond
)

// Options configures one KV serving run. The zero value is not runnable;
// start from DefaultOptions.
type Options struct {
	Servers int // ranks 0..Servers-1 host one window each
	Clients int // ranks Servers..Servers+Clients-1 generate load
	Keys    int // key space size
	Mode    core.Mode
	Seed    uint64

	// OpsPerClient requests per client arrive open-loop, a pure function of
	// the seed independent of service times.
	OpsPerClient int
	// ReadPermille of requests are reads (0..1000); the rest are writes.
	ReadPermille int

	// ErrBudget is the per-client error budget: once that many attempts
	// have failed the client degrades to single-attempt service (no
	// retries, no backoff).
	ErrBudget int

	// Schedule injects deterministic faults (fabric layer). Zero value =
	// pristine fabric.
	Schedule fabric.FaultProfile

	// BinWidth buckets completions for the throughput/latency time series.
	BinWidth sim.Time

	// Shards runs the simulation on a sharded kernel (0/1 = serial). Every
	// observable of the Result is bit-identical across shard counts.
	Shards int
}

// DefaultOptions returns a small but representative serving scenario:
// 4 servers, 8 clients and a skewed 128-key space.
func DefaultOptions() Options {
	return Options{
		Servers:      4,
		Clients:      8,
		Keys:         128,
		Mode:         core.ModeNew,
		Seed:         1,
		OpsPerClient: 48,
		ReadPermille: 500,
		ErrBudget:    24,
		BinWidth:     sim.Millisecond,
	}
}

// validate panics on unrunnable option combinations.
func (o Options) validate() {
	if o.Servers < 2 {
		panic("kvstore: need at least 2 servers (primary + replica)")
	}
	if o.Clients < 1 {
		panic("kvstore: need at least 1 client")
	}
	if o.Clients >= 1<<clientBits {
		panic(fmt.Sprintf("kvstore: at most %d clients (writer id is packed into %d version bits)",
			1<<clientBits-1, clientBits))
	}
	if o.Keys < 1 {
		panic("kvstore: need at least 1 key")
	}
	if o.OpsPerClient < 1 || o.BinWidth <= 0 {
		panic("kvstore: OpsPerClient and BinWidth must be positive")
	}
}

// home returns key k's primary server.
func (o Options) home(k int) int { return k % o.Servers }

// replica returns key k's replica server.
func (o Options) replica(k int) int { return (k%o.Servers + 1) % o.Servers }

// Outcome classifies how one request ended.
type Outcome int

// Request outcomes, from best to worst.
const (
	AckFull     Outcome = iota // write on primary and replica / read from primary
	AckDegraded                // write durable on exactly one copy / read served stale from the replica
	Shed                       // dropped by load shedding before or during service
	Failed                     // all attempts errored before the deadline
)

// String names an outcome.
func (oc Outcome) String() string {
	switch oc {
	case AckFull:
		return "ack"
	case AckDegraded:
		return "ack-degraded"
	case Shed:
		return "shed"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("Outcome(%d)", int(oc))
}

// opRec is one request's outcome in a client's log; the oracle and the
// Result aggregation both consume these.
type opRec struct {
	Idx      int
	Key      int
	Write    bool
	Arrival  sim.Time
	Done     sim.Time
	Outcome  Outcome
	Retries  int
	Failover bool   // completed against a non-primary target
	Slot     uint64 // packed value written (writes) or observed (reads)
	Holders  [2]int // servers known to hold the write (-1 = none); reads: [src,-1]
}

// Bin is one time bucket of the throughput/latency series. Latency
// percentiles are virtual durations; a bin with no completions carries -1.
type Bin struct {
	Start  sim.Time
	Acked  int
	Shed   int
	Failed int
	P50    sim.Time
	P99    sim.Time
	P999   sim.Time
}

// Result is everything a run produces: totals, the time series across the
// fault event, and the oracle's verdict. All fields are bit-identical
// across -workers and -shards for the same Options.
type Result struct {
	Opt Options

	Acked        int // AckFull requests
	AckedDeg     int // AckDegraded requests
	ShedOps      int
	FailedOps    int
	Retries      int // attempts beyond the first, summed over requests
	Failovers    int // requests completed against a non-primary target
	DegradedCli  int // clients that exhausted their error budget
	WinsPoisoned int // (client, window) pairs poisoned during the run

	Bins []Bin

	// OracleViolations is empty on a correct run: every surviving copy
	// holds an attempted value at least as new as every acknowledged write
	// it covers, and every read observed an attempted-or-initial value.
	OracleViolations []string
}

// Throughput returns acknowledged requests (full or degraded) per
// virtual-time second, averaged over the whole run.
func (res *Result) Throughput() float64 {
	if len(res.Bins) == 0 {
		return 0
	}
	span := res.Bins[len(res.Bins)-1].Start + res.Opt.BinWidth
	if span <= 0 {
		return 0
	}
	return float64(res.Acked+res.AckedDeg) / (float64(span) / float64(sim.Second))
}

// String renders the run like a benchmark table row block.
func (res *Result) String() string {
	s := fmt.Sprintf("kv %s: ack=%d ack-degraded=%d shed=%d failed=%d retries=%d failovers=%d poisoned=%d degraded-clients=%d\n",
		res.Opt.Mode, res.Acked, res.AckedDeg, res.ShedOps, res.FailedOps,
		res.Retries, res.Failovers, res.WinsPoisoned, res.DegradedCli)
	for _, b := range res.Bins {
		s += fmt.Sprintf("  t=%-8s acked=%-4d shed=%-3d failed=%-3d p50=%-8s p99=%-8s p999=%s\n",
			fmtDur(b.Start), b.Acked, b.Shed, b.Failed, fmtDur(b.P50), fmtDur(b.P99), fmtDur(b.P999))
	}
	if len(res.OracleViolations) == 0 {
		s += "  oracle: ok (zero acknowledged-write loss)"
	} else {
		for _, v := range res.OracleViolations {
			s += "  ORACLE VIOLATION: " + v + "\n"
		}
	}
	return s
}

// fmtDur renders a virtual duration compactly for the table.
func fmtDur(t sim.Time) string {
	switch {
	case t < 0:
		return "-"
	case t >= sim.Millisecond:
		return fmt.Sprintf("%.2fms", float64(t)/float64(sim.Millisecond))
	default:
		return fmt.Sprintf("%dus", t/sim.Microsecond)
	}
}

// Run executes one KV serving scenario and returns its Result. The
// simulation is self-contained; faults come only from opt.Schedule.
func Run(opt Options) *Result { return serve(opt, true) }

// serve runs the scenario with its ranks as task ranks or, as the parity
// tests' reference, as coroutine ranks (prog.Run.Exec); the two Results are
// identical.
func serve(opt Options, tasks bool) *Result {
	opt.validate()
	n := opt.Servers + opt.Clients
	w := mpi.NewWorldShards(n, fabric.DefaultConfig(), opt.Shards)
	if fs := opt.Schedule; fs.Deaths != nil || fs.Flaps != nil || fs.Drop != 0 || fs.Dup != 0 ||
		fs.Corrupt != 0 || fs.Jitter != 0 || fs.Seed != 0 || fs.DetectDelay != 0 {
		w.Net.EnableFaults(opt.Schedule)
	}
	// Collective setup: every rank creates all S windows in the same order;
	// window s's memory is authoritative on rank s only. The flush master is
	// pinned to the home rank so a ModeFlush window depends on no rank but
	// its own server. Errors return: a client recovers from a failed epoch.
	specs := make([]prog.Window, opt.Servers)
	create := make([]prog.Call, opt.Servers)
	for s := range specs {
		specs[s] = prog.Window{Size: int64(2*opt.Keys) * slotBytes, Opt: core.WinOptions{
			Mode:         opt.Mode,
			EpochTimeout: epochTimeout,
			FlushMaster:  s,
			ErrorsReturn: true,
		}}
		create[s] = prog.Call{Kind: prog.Create, Win: int32(s)}
	}
	run := prog.NewRun(w, specs...)
	clients := make([]*client, opt.Clients)
	body := []prog.Call{{Kind: prog.Gen}}
	err := run.Exec(func(r *mpi.Rank) prog.Program {
		if r.ID < opt.Servers {
			// Servers are passive: the NIC, lock agent and progress engine
			// serve requests in kernel context. Ending after setup (instead
			// of blocking on a final barrier) keeps a dead server from
			// wedging the run's teardown.
			return prog.Program{Pre: create}
		}
		c := newClient(r, opt, run.Wins[r.ID])
		clients[r.ID-opt.Servers] = c
		return prog.Program{Pre: create, Body: body, Iters: 1, Gen: c}
	}, tasks)
	if err != nil {
		// Clients take RMA errors as values; anything that escapes is a
		// harness bug, not a scenario outcome.
		panic(fmt.Sprintf("kvstore: simulation failed: %v", err))
	}

	res := &Result{Opt: opt}
	logs := make([][]opRec, opt.Clients)
	atts := make([][]attempt, opt.Clients)
	for ci, c := range clients {
		logs[ci], atts[ci] = c.log, c.attempted
		if c.degradedMode {
			res.DegradedCli++
		}
		for _, win := range c.wins {
			if win.Err() != nil {
				res.WinsPoisoned++
			}
		}
	}
	aggregate(res, logs)
	res.OracleViolations = verify(opt, logs, atts, snapshots(opt, run.Wins))
	return res
}

// snapshots copies each server's authoritative window memory after the run.
// A dead server's memory is still readable by the harness; the oracle
// decides which copies count as surviving.
func snapshots(opt Options, wins [][]*core.Window) [][]byte {
	out := make([][]byte, opt.Servers)
	for s := 0; s < opt.Servers; s++ {
		out[s] = append([]byte(nil), wins[s][s].Bytes()...)
	}
	return out
}

// aggregate folds the per-client logs into totals and the binned series.
// Everything is derived in (client, op index) order, so the Result is
// identical no matter how the simulation was scheduled.
func aggregate(res *Result, logs [][]opRec) {
	var end sim.Time
	for _, log := range logs {
		for _, rec := range log {
			if rec.Done > end {
				end = rec.Done
			}
		}
	}
	nbins := int(end/res.Opt.BinWidth) + 1
	lat := make([][]sim.Time, nbins)
	bins := make([]Bin, nbins)
	for i := range bins {
		bins[i].Start = sim.Time(i) * res.Opt.BinWidth
		bins[i].P50, bins[i].P99, bins[i].P999 = -1, -1, -1
	}
	for _, log := range logs {
		for _, rec := range log {
			res.Retries += rec.Retries
			b := int(rec.Done / res.Opt.BinWidth)
			switch rec.Outcome {
			case AckFull, AckDegraded:
				if rec.Outcome == AckFull {
					res.Acked++
				} else {
					res.AckedDeg++
				}
				if rec.Failover {
					res.Failovers++
				}
				bins[b].Acked++
				lat[b] = append(lat[b], rec.Done-rec.Arrival)
			case Shed:
				res.ShedOps++
				bins[b].Shed++
			case Failed:
				res.FailedOps++
				bins[b].Failed++
			}
		}
	}
	for i := range bins {
		if len(lat[i]) == 0 {
			continue
		}
		sort.Slice(lat[i], func(a, b int) bool { return lat[i][a] < lat[i][b] })
		bins[i].P50 = percentile(lat[i], 500)
		bins[i].P99 = percentile(lat[i], 990)
		bins[i].P999 = percentile(lat[i], 999)
	}
	res.Bins = bins
}

// percentile picks the nearest-rank percentile, given in per-mille, from a
// non-empty sorted sample: the element at rank ceil(pm/1000 * N).
func percentile(sorted []sim.Time, pm int) sim.Time {
	return sorted[(pm*len(sorted)+999)/1000-1]
}

// leU64 decodes a little-endian 8-byte slot.
func leU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
