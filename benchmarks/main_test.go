package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lastLine parses the result line that ends a report.
func lastLine(t *testing.T, report string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(report), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, report)
	}
	return res
}

// checkMetrics asserts that res carries exactly the declared metrics.
func checkMetrics(t *testing.T, res result, want []declaredMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s was not printed", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s printed in %q, declared in %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.Name, got.Value)
		}
	}
}

func declaredSets(t *testing.T) declared {
	t.Helper()
	d, err := readDeclared(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclarationMatchesCode(t *testing.T) {
	d := declaredSets(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []declaredMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code prints %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name/unit %q / %q", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if i < len(want) && (m.Name != want[i].name || m.Unit != want[i].unit) {
				t.Errorf("%s[%d]: declared %s [%s], code has %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd)
	check("per_layer", d.PerLayer, perLayer())
	if len(d.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(d.PerLayer))
	}
	hasSetup := false
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (code: %q), why %q", i, w.Name, workloads[i].name, w.Why)
		}
	}
}

func TestWorkloadsOneUnit(t *testing.T) {
	d := declaredSets(t)
	for _, w := range workloads {
		if testing.Short() && w.name == "scale512" {
			continue // two 512-rank cells: ~4 s
		}
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := run(config{workload: w.name, seed: 1, seconds: 0.001, maxUnits: 1}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
				t.Errorf("correct %v, failed %d, attempted %d (want true, 0, 2)\n%s", res.Correct, res.Failed, res.Attempted, &out)
			}
			checkMetrics(t, lastLine(t, out.String()), d.EndToEnd)
			for _, m := range d.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			if !regexp.MustCompile(`(?m)^info sim_digest [0-9a-f]{16}$`).MatchString(out.String()) {
				t.Errorf("no sim_digest line in\n%s", &out)
			}
		})
	}
}

func TestTracedRun(t *testing.T) {
	d := declaredSets(t)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	res, err := run(config{workload: "patterns", seed: 1, seconds: 0.001, trace: true, traceOut: tracePath,
		maxUnits: 1, driverSize: 0.01}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 {
		t.Errorf("correct %v, attempted %d (want true, 3)\n%s", res.Correct, res.Attempted, &out)
	}
	checkMetrics(t, lastLine(t, out.String()), d.PerLayer)
	var sum float64
	for _, b := range profileBins {
		sum += res.Metrics["self_share."+b].Value
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("self_share.* sums to %v, want 1", sum)
	}
	for _, name := range []string{"span_cpu_ms.fig2", "span_cpu_ms.overlap", "sim.event_ns", "core.gats_epoch_ns", "core.events_per_gats_epoch"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if v := res.Metrics["span_cpu_ms.cell512"].Value; v != 0 {
		t.Errorf("span_cpu_ms.cell512 = %v on patterns, want 0 (call not made)", v)
	}

	// The trace file: workload -> unit -> one span per call.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args struct {
				ID, Parent int
				CPUMs      float64 `json:"cpu_ms"`
			}
		}
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	// workload -> {ref, unit -> one span per call, ref}, in start order.
	calls := len(findWorkload("patterns").calls)
	if len(tf.TraceEvents) != 4+calls {
		t.Fatalf("%d trace events, want workload + unit + 2 ref + %d calls", len(tf.TraceEvents), calls)
	}
	for i, e := range tf.TraceEvents {
		wantParent, wantName := 2, "" // a call of the unit
		switch i {
		case 0:
			wantParent, wantName = -1, "patterns"
		case 1, 3 + calls:
			wantParent, wantName = 0, "ref"
		case 2:
			wantParent, wantName = 0, "unit 1"
		}
		if e.Ph != "X" || e.Args.ID != i || e.Args.Parent != wantParent || e.Dur <= 0 || (wantName != "" && e.Name != wantName) {
			t.Errorf("event %d: %+v, want ph X, id %d, parent %d, name %q, dur > 0", i, e, i, wantParent, wantName)
		}
	}
}

func TestFailingUnitIsCounted(t *testing.T) {
	workloads = append(workloads, workload{"flaky", []call{
		{"odd", func(o *outcome, _ uint64, unit int) {
			o.emit("same output")
			if unit == 1 {
				o.failf("unit %d violates an invariant", unit)
			}
		}},
		{"boom", func(o *outcome, _ uint64, unit int) {
			if unit == 2 {
				panic("simulation failed")
			}
		}},
		{"drift", func(o *outcome, _ uint64, unit int) {
			if unit == 3 {
				o.emit("different output")
			}
		}},
	}})
	defer func() { workloads = workloads[:len(workloads)-1] }()
	var out bytes.Buffer
	res, err := run(config{workload: "flaky", seconds: 60, maxUnits: 4}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 5 || res.Failed != 3 {
		t.Errorf("correct %v, attempted %d, failed %d; want false, 5, 3\n%s", res.Correct, res.Attempted, res.Failed, &out)
	}
	for _, want := range []string{"violates an invariant", "boom panicked: simulation failed", "not deterministic"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, &out)
		}
	}
}

// Protobuf writers for the synthetic profile.
func pbVarint(b []byte, field int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3|2), uint64(len(data)))
	return append(b, data...)
}

func pbPacked(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestProfileBinsSyntheticProfile(t *testing.T) {
	// Function i+1 is named strs[i+1]; location i+1 is function i+1, except
	// location 8: fabric code inlined (line 0, the leaf) into bench code.
	strs := []string{"",
		"repro/internal/sim.(*Kernel).Run", "repro/internal/topo.(*Engine).Send", "runtime.mallocgc",
		"runtime.chanrecv", "fmt.Sprintf", "repro/internal/par.MapN[...]", "repro/internal/fabric.(*NIC).pump",
		"repro/internal/bench.scaleCell", "gogo", "runtime.memclrNoHeapPointers", "main.(*refKernel).pop",
	}
	var prof []byte
	prof = pbBytes(prof, 1, pbVarint(pbVarint(nil, 1, 0), 2, 0)) // sample_type: ignored
	line := func(fn uint64) []byte { return pbVarint(nil, 1, fn) }
	for i := uint64(1); i < uint64(len(strs)); i++ {
		prof = pbBytes(prof, 5, pbVarint(pbVarint(nil, 1, i), 2, i))
		if i != 8 {
			prof = pbBytes(prof, 4, pbBytes(pbVarint(nil, 1, i), 4, line(i)))
		}
	}
	prof = pbBytes(prof, 4, pbBytes(pbBytes(pbVarint(nil, 1, 8), 4, line(7)), 4, line(8)))
	sample := func(count uint64, locs ...uint64) {
		prof = pbBytes(prof, 2, pbBytes(pbBytes(nil, 1, pbPacked(locs...)), 2, pbPacked(count, count*10_000_000)))
	}
	sample(30, 1, 8)                // sim leaf under bench
	sample(20, 2, 1)                // topo
	sample(10, 3, 1)                // go_mem
	sample(15, 4, 1)                // go_sched
	sample(5, 5, 8)                 // go_other
	sample(4, 6)                    // other_repro
	sample(6, 8, 1)                 // inlined fabric leaf
	sample(5, 9)                    // go_sched (bare assembly name)
	sample(5, 10, 3)                // go_mem
	prof = pbVarint(prof, 9, 12345) // time_nanos: skipped
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	shares, total, err := profileShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Errorf("total samples %d, want 100", total)
	}
	want := map[string]float64{"sim": 0.30, "topo": 0.20, "go_mem": 0.15, "go_sched": 0.20, "go_other": 0.05,
		"other_repro": 0.04, "fabric": 0.06}
	for _, b := range profileBins {
		if math.Abs(shares[b]-want[b]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", b, shares[b], want[b])
		}
	}
	if _, _, err := profileShares(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func TestBinOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*Window).Put":          "core",
		"repro/internal/kvstore.Run.func1":           "kvstore",
		"repro/internal/stats.(*Table).String":       "other_repro",
		"repro.NewCluster":                           "other_repro",
		"main.runUnit":                               "other_repro",
		"runtime.gopark":                             "go_sched",
		"runtime.futex":                              "go_sched",
		"runtime.(*mspan).writeHeapBitsSmall":        "go_mem",
		"runtime.gcDrain":                            "go_mem",
		"runtime.duffcopy":                           "go_other",
		"internal/runtime/maps.(*Map).getWithoutKey": "go_other",
		"strconv.FormatFloat":                        "go_other",
		"":                                           "go_other",
	} {
		if got := binOf(fn); got != want {
			t.Errorf("binOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 130)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v := tail(xs); v != 120 || math.Abs(pct-100*120.0/130) > 1e-9 {
		t.Errorf("tail of 1..130 = p%v %v, want p92.3 120 (ten samples beyond)", pct, v)
	}
	if pct, _ := tail(xs[:16]); pct != 0 {
		t.Errorf("16 samples have no reportable tail, got p%v", pct)
	}
}
