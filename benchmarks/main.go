// Command benchmarks is the repo's macro benchmark: four workloads driven
// through the public entry points users call, measured from outside the
// program. See README.md for what each workload and metric means and
// BENCHMARK.json for the declared metric sets and bounds.
//
//	bash benchmarks/run.sh --workload patterns --seed 1 --seconds 20 --trace 0
//	bash benchmarks/run.sh --workload scale512 --seed 1 --seconds 20 --trace 1
//	bash benchmarks/run.sh -aa 5 > benchmarks/results/origin.json
//
// The untraced run prints the end-to-end metrics, the traced run the
// per-layer ones; the last line of standard output is one JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// noisyStealPct is the host-wide steal share above which a run's timings
// should be discarded by whoever reads them.
const noisyStealPct = 25

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string

	maxUnits   int     // per phase; 0 = as many as fit in the time budget
	probes     int     // cold starts sampled for setup_s, this process's included
	driverSize float64 // layer-driver op-count scale
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := config{probes: 5, driverSize: 1}
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	aa := flag.Int("aa", 0, "A/A mode: two interleaved sets of `N` runs per workload, JSON report on stdout")
	probe := flag.Bool("setup-probe", false, "internal: run the first unit cold, print the set-up seconds, exit")
	flag.StringVar(&cfg.workload, "workload", "", "patterns | scale512 | apps | fuzz_chaos")
	flag.Uint64Var(&cfg.seed, "seed", 1, "first fuzz seed of fuzz_chaos (the other workloads draw no random inputs)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "wall seconds to measure for")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "trace-event file of the traced run (default .bench_build/trace_<workload>.json)")
	flag.Parse()
	cfg.trace = *trace != 0

	if *aa > 0 {
		if err := runAA(*aa, cfg.seconds, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(cfg.workload)
	if w == nil || flag.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmarks: unknown workload %q or bad arguments\n", cfg.workload)
		flag.Usage()
		os.Exit(2)
	}
	if *probe {
		pinSerial()
		first, setup, _ := coldStart(w, cfg.seed)
		if len(first.problems) > 0 {
			fmt.Fprintln(os.Stderr, strings.Join(first.problems, "\n"))
			os.Exit(1)
		}
		fmt.Println(setup)
		return
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and writes the report: one line per metric,
// then the result as a single JSON line.
func run(cfg config, out io.Writer) (result, error) {
	defer pinSerial()()
	w := findWorkload(cfg.workload)
	budget := time.Duration(cfg.seconds * float64(time.Second))

	// Set-up: the first unit of a fresh process, cold. It is also the
	// warm-up and the reference every later unit's digest must equal. Extra
	// cold starts in child processes make set-up a median, not one sample.
	first, setup, ref := coldStart(w, cfg.seed)
	setups := []float64{setup}
	for probing := time.Now(); len(setups) < cfg.probes && time.Since(probing) < maxProbing; {
		s, err := setupProbe(cfg)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}

	// The traced run spends a third of the budget untraced, for the
	// overhead comparison, and a third traced; the rest goes to the drivers.
	if cfg.trace {
		budget /= 3
	}
	const minUnits = 3
	plain := runPhase(w, cfg.seed, 1, budget, minUnits, cfg.maxUnits, nil, ref)
	rss := peakRSSMiB()
	units := append([]unitSample{first}, plain.units...)
	normP50 := func(p *phase) float64 { return median(p.column(unitSample.normMs)) }

	metrics := map[string]float64{}
	var traced phase
	if cfg.trace {
		var prof bytes.Buffer
		tr := &tracer{origin: time.Now()}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
		// The same units again, so that the two phases differ in tracing only.
		traced = runPhase(w, cfg.seed, 1, 0, len(plain.units), len(plain.units), tr, ref)
		pprof.StopCPUProfile()
		units = append(units, traced.units...)

		shares, samples, err := profileShares(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "info profile_samples %d\n", samples)
		for b, s := range shares {
			metrics["self_share."+b] = s
		}
		for name, ms := range spanMedians(tr) {
			metrics["span_cpu_ms."+name] = ms
		}
		metrics["trace_overhead_pct"] = 100 * (normP50(&traced)/normP50(&plain) - 1)
		metrics["sim_latency_us"] = first.latency
		metrics["host.ref_kernel_ms"] = median(append(plain.column(refMsOf), traced.column(refMsOf)...))
		for name, v := range drivers(cfg.driverSize) {
			metrics[name] = v
		}
		if err := writeTrace(tr, prof.Bytes(), cfg); err != nil {
			return result{}, err
		}
	} else {
		metrics["unit_cpu_norm_ms_p50"] = normP50(&plain)
		metrics["unit_mallocs_k_p50"] = median(plain.column(func(u unitSample) float64 { return u.mallocsK }))
		metrics["unit_alloc_mib_p50"] = median(plain.column(func(u unitSample) float64 { return u.allocMiB }))
		metrics["peak_rss_mib"] = rss
		metrics["setup_s"] = median(setups)
	}

	// Output checks: every unit reproduces the first unit's simulated
	// results bit for bit and violates no invariant.
	failed := 0
	for i, u := range units {
		if u.digest != first.digest {
			u.problems = append(u.problems, fmt.Sprintf("sim_digest %s differs from the first unit's %s: simulated results are not deterministic", u.digest, first.digest))
		}
		if len(u.problems) > 0 {
			failed++
			fmt.Fprintf(out, "FAILED unit %d: %s\n", i, strings.Join(u.problems, "\n  "))
		}
	}

	res := result{Correct: failed == 0, Attempted: len(units), Failed: failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %t %s GOMAXPROCS=%d\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{metrics[d.name], d.unit}
		fmt.Fprintf(out, "metric %-32s %14.6g %s\n", d.name, metrics[d.name], d.unit)
	}
	norms, refs := plain.column(unitSample.normMs), plain.column(refMsOf)
	pct, tailMs := tail(norms)
	fmt.Fprintf(out, "info units %d measured (unit_cpu_norm_ms_p50 n=%d), %d failed of %d attempted\n", len(plain.units), len(norms), failed, len(units))
	if pct > 0 {
		fmt.Fprintf(out, "info unit_cpu_norm_ms_tail %.6g ms p%.1f n=%d\n", tailMs, pct, len(norms))
	} else {
		fmt.Fprintf(out, "info unit_cpu_norm_ms_tail none: n=%d leaves no percentile with ten samples beyond it\n", len(norms))
	}
	fmt.Fprintf(out, "info unit_cpu_ms_p50 %.6g ms raw, ref_kernel_ms p50 %.4g min %.4g max %.4g (nominal %d)\n",
		median(plain.column(func(u unitSample) float64 { return u.cpuMs })), median(refs), slices.Min(refs), slices.Max(refs), refNominalMs)
	fmt.Fprintf(out, "info setup_s samples %.4g\n", setups)
	fmt.Fprintf(out, "info wall_s %.3f cpu_s %.3f wall/cpu %.3f\n", plain.wall.Seconds(), plain.cpu.Seconds(), plain.wall.Seconds()/plain.cpu.Seconds())
	fmt.Fprintf(out, "info gc_cycles %d\n", plain.gcCycles)
	fmt.Fprintf(out, "info host_steal_pct %.1f\n", plain.stealPct)
	fmt.Fprintf(out, "info sim_digest %s\n", first.digest)
	fmt.Fprintf(out, "info sim_latency_us %.6f\n", first.latency)
	if plain.stealPct > noisyStealPct || traced.stealPct > noisyStealPct {
		fmt.Fprintf(out, "noisy_host: %.0f%% of host CPU time was stolen during the measured phase (> %d%%); discard this run's timings\n",
			max(plain.stealPct, traced.stealPct), noisyStealPct)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return res, err
}

// Set-up sampling: up to cfg.probes cold starts, none begun once maxProbing
// wall time has gone into them (a scale512 cold start takes ~2 s), each
// scaled by setupRefReps reference passes.
const (
	maxProbing   = 6 * time.Second
	setupRefReps = 3
)

func refMsOf(u unitSample) float64 { return u.refMs }

// coldStart runs the process's first unit and returns it, the process CPU
// seconds spent up to its end at the nominal host speed, and the reference
// kernel that scaled them.
func coldStart(w *workload, seed uint64) (first unitSample, setupS float64, ref *refKernel) {
	first = runUnit(w, seed, 0, nil, -1)
	cpu := cpuTime().Seconds()
	ref = newRefKernel()
	return first, cpu * refNominalMs / ref.sample(setupRefReps), ref
}

// setupProbe cold-starts this binary once more and returns the process CPU
// seconds it needed to finish its first unit, at the nominal host speed.
func setupProbe(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10), "-setup-probe")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(stdout)), 64)
}

// spanMedians returns the median CPU milliseconds of each call span.
func spanMedians(tr *tracer) map[string]float64 {
	byName := map[string][]float64{}
	for _, s := range tr.spans {
		if s.parent >= 0 && tr.spans[s.parent].parent >= 0 { // workload -> unit -> call
			byName[s.name] = append(byName[s.name], float64(s.cpu)/1e6)
		}
	}
	meds := make(map[string]float64, len(byName))
	for name, xs := range byName {
		meds[name] = median(xs)
	}
	return meds
}

// writeTrace writes the spans as FILE.json and the raw CPU profile beside
// them as FILE.pprof (for go tool pprof).
func writeTrace(tr *tracer, prof []byte, cfg config) error {
	path := cfg.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "trace_"+cfg.workload+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var spans bytes.Buffer
	if err := tr.writeJSON(&spans); err != nil {
		return err
	}
	if err := os.WriteFile(path, spans.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(strings.TrimSuffix(path, ".json")+".pprof", prof, 0o644)
}
