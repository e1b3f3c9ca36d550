package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// A/A mode: the same binary measured as two interleaved sets of runs, the
// way a parent/change comparison would be, so the benchmark's own bounds can
// be checked against its own noise. The report is what results/origin.json
// pins for this commit.

// declared mirrors BENCHMARK.json.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readDeclared(path string) (declared, error) {
	var d declared
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

type aaSet struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
}

type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"`
	A        aaSet   `json:"a"`
	B        aaSet   `json:"b"`
	// Worsening is how much worse B's median is than A's, as a share of A's
	// (negative: better). Pass: both spreads and the worsening within bound.
	Worsening float64 `json:"worsening"`
	Pass      bool    `json:"pass"`
}

type aaReport struct {
	GoVersion   string                        `json:"go_version"`
	NProc       int                           `json:"nproc"`
	Kernel      string                        `json:"kernel"`
	GOMAXPROCS  int                           `json:"gomaxprocs"`
	RunSeconds  float64                       `json:"run_seconds"`
	RunsPerSet  int                           `json:"runs_per_set"`
	Pass        bool                          `json:"pass"`
	EndToEnd    []aaRow                       `json:"end_to_end"`
	DigestsSame map[string]bool               `json:"sim_digest_identical"`
	PerLayer    map[string]map[string]float64 `json:"per_layer"`
}

// runAA runs, per workload, sets A and B of n untraced runs each,
// interleaved (A1 B1 A2 B2 ..; run i of both sets uses -seed i), then one
// traced run, and writes the report to out.
func runAA(n int, seconds float64, out io.Writer) error {
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("A/A mode runs from the root of the repo: %w", err)
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	rep := aaReport{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Kernel: strings.TrimSpace(string(kernel)),
		GOMAXPROCS: 1, RunSeconds: seconds, RunsPerSet: n, Pass: true,
		DigestsSame: map[string]bool{}, PerLayer: map[string]map[string]float64{},
	}
	for _, w := range workloads {
		values := [2]map[string][]float64{{}, {}}
		digests := map[string]bool{}
		for i := 1; i <= n; i++ {
			for set := 0; set < 2; set++ {
				res, digest, err := child(w.name, i, seconds, 0)
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "aa: %s set %c run %d done\n", w.name, 'A'+set, i)
				for name, m := range res.Metrics {
					values[set][name] = append(values[set][name], m.Value)
				}
				digests[digest] = true
			}
		}
		rep.DigestsSame[w.name] = len(digests) == 1
		rep.Pass = rep.Pass && len(digests) == 1
		for _, m := range decl.EndToEnd {
			row := aaRow{Workload: w.name, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound,
				A: summarize(values[0][m.Name]), B: summarize(values[1][m.Name])}
			row.Worsening = (row.B.Median - row.A.Median) / row.A.Median
			if m.Better == "higher" {
				row.Worsening = -row.Worsening
			}
			// The spread of setup_s is not held to its bound: it is a cold
			// start, and only its median has to repeat.
			spreadOK := m.Name == "setup_s" || (row.A.Spread <= m.Bound && row.B.Spread <= m.Bound)
			row.Pass = spreadOK && row.Worsening <= m.Bound
			rep.Pass = rep.Pass && row.Pass
			rep.EndToEnd = append(rep.EndToEnd, row)
		}
		res, _, err := child(w.name, 1, seconds, 1)
		if err != nil {
			return err
		}
		layer := map[string]float64{}
		for name, m := range res.Metrics {
			layer[name] = m.Value
		}
		rep.PerLayer[w.name] = layer
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", " ")
	return enc.Encode(rep)
}

// child runs this binary once and returns its result line and sim_digest.
func child(workload string, seed int, seconds float64, trace int) (result, string, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, "", err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return res, "", fmt.Errorf("%s run failed: %w\n%s", workload, err, stdout)
	}
	var last, digest string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "info sim_digest "); ok {
			digest = rest
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, "", fmt.Errorf("%s run: last line is not a result: %w", workload, err)
	}
	return res, digest, nil
}

func summarize(xs []float64) aaSet {
	q1, q2, q3 := quartiles(xs)
	return aaSet{Values: xs, Q1: q1, Median: q2, Q3: q3, Spread: (q3 - q1) / q2}
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the acceptance check of this benchmark uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
