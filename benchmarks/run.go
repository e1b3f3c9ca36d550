package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/bench"
	"repro/internal/par"
)

// pinSerial applies the run discipline of every end-to-end measurement: one
// OS thread running Go code, serial figure sweeps, the serial kernel. One
// simulation is single-token by design; at GOMAXPROCS=2 the goroutine-proc
// workloads burn ~1.4-1.5x the CPU in cross-thread handoff and turn noisy.
// It returns a function restoring the previous settings.
func pinSerial() (restore func()) {
	procs := runtime.GOMAXPROCS(1)
	workers, shards := par.Workers(), bench.Shards()
	par.SetWorkers(1)
	bench.SetShards(0)
	return func() {
		runtime.GOMAXPROCS(procs)
		par.SetWorkers(workers)
		bench.SetShards(shards)
	}
}

// span is one timed interval of the traced run: workload -> unit -> call.
type span struct {
	name       string
	parent     int // index into tracer.spans, -1 for a root
	start, end time.Duration
	cpu        time.Duration
}

// tracer records spans in memory; a nil tracer records nothing, which is the
// untraced run.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.origin), cpu: -cpuTime()})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.cpu += cpuTime()
	s.end = time.Since(t.origin)
}

// writeJSON renders the spans in the Chrome trace-event format (load in
// chrome://tracing or ui.perfetto.dev): complete ("X") events, microseconds.
func (t *tracer) writeJSON(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{
				"id": i, "parent": s.parent,
				"cpu_ms": float64(s.cpu) / 1e6,
			},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// unitSample is what one unit cost and produced.
type unitSample struct {
	cpuMs    float64
	refMs    float64 // reference-kernel samples taken right before and after, averaged
	mallocsK float64
	allocMiB float64
	digest   string
	latency  float64
	problems []string
}

// normMs is the unit's CPU time at the nominal host speed (calib.go).
func (u unitSample) normMs() float64 { return u.cpuMs * refNominalMs / u.refMs }

// runUnit executes unit number unit of w and measures it from outside.
func runUnit(w *workload, seed uint64, unit int, tr *tracer, parent int) unitSample {
	o := &outcome{}
	id := tr.begin(fmt.Sprintf("unit %d", unit), parent)
	objs0, bytes0, _ := heapCounters()
	cpu0 := cpuTime()
	for _, c := range w.calls {
		cid := tr.begin(c.name, id)
		runCall(c, o, seed, unit)
		tr.finish(cid)
	}
	cpu := cpuTime() - cpu0
	objs1, bytes1, _ := heapCounters()
	tr.finish(id)
	sum := sha256.Sum256([]byte(o.out.String()))
	return unitSample{
		cpuMs:    float64(cpu) / 1e6,
		mallocsK: float64(objs1-objs0) / 1e3,
		allocMiB: float64(bytes1-bytes0) / (1 << 20),
		digest:   hex.EncodeToString(sum[:8]),
		latency:  o.latency,
		problems: o.problems,
	}
}

// runCall turns a panic in the program (the bench harness panics on a
// simulation error or an oracle violation) into a failed unit.
func runCall(c call, o *outcome, seed uint64, unit int) {
	defer func() {
		if r := recover(); r != nil {
			o.failf("%s panicked: %v\n%s", c.name, r, debug.Stack())
		}
	}()
	c.run(o, seed, unit)
}

// phase is a measured sequence of units.
type phase struct {
	units    []unitSample
	wall     time.Duration
	cpu      time.Duration
	gcCycles uint64
	stealPct float64 // host-wide steal over the phase, % of all CPU time
}

func (p *phase) column(f func(unitSample) float64) []float64 {
	xs := make([]float64, len(p.units))
	for i, u := range p.units {
		xs[i] = f(u)
	}
	return xs
}

// refShare is how much reference-kernel time is spent per unit of workload
// time: longer units get proportionally longer reference samples, so that
// the reference is never the noisier half of the ratio.
const refShare = 0.1

// runPhase runs units first, first+1, .. until budget wall time has passed
// and at least minUnits have run, or maxUnits have (0: no cap). A reference
// sample ("ref" in the trace) separates consecutive units.
func runPhase(w *workload, seed uint64, first int, budget time.Duration, minUnits, maxUnits int, tr *tracer, ref *refKernel) phase {
	var p phase
	root := tr.begin(w.name, -1)
	steal0, total0 := hostTicks()
	_, _, gc0 := heapCounters()
	cpu0, start := cpuTime(), time.Now()
	refSample := func(reps int) float64 {
		id := tr.begin("ref", root)
		defer tr.finish(id)
		return ref.sample(reps)
	}
	before := refSample(1)
	for n := 0; (n < minUnits || time.Since(start) < budget) && (maxUnits == 0 || n < maxUnits); n++ {
		u := runUnit(w, seed, first+n, tr, root)
		after := refSample(min(max(int(refShare*u.cpuMs/refNominalMs+0.5), 1), 8))
		u.refMs = (before + after) / 2
		before = after
		p.units = append(p.units, u)
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	_, _, gc1 := heapCounters()
	steal1, total1 := hostTicks()
	tr.finish(root)
	p.gcCycles = gc1 - gc0
	if total1 > total0 {
		p.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	return p
}
