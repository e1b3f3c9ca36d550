// Package bench regenerates every figure of the paper's evaluation
// (Section VIII) on the simulated cluster: the five inefficiency-pattern
// microbenchmarks (Figs 2-6), the four progress-engine optimization-flag
// microbenchmarks (Figs 7-11), the massive unstructured atomic-transaction
// pattern (Fig 12) and the LU-decomposition application study (Fig 13),
// plus the generic latency/overlap observations of Section VIII-A — and
// this repo's extensions: the design-choice ablations, the fault sweep
// (FigFaultSweep), the chaos-serving KV figure (FigKV), the window-mode
// comparison (FigModes), the counter-signal transport figure (FigSignal)
// and the fat-tree scaling figure (FigScale).
//
// A figure is a rows x cols table of virtual-time readings: grid builds
// the ones whose every cell is its own simulation, gridColumns the ones
// where one simulation yields a whole column. Every cell is a prog.Program
// per rank — call records built once per cell, made by the one interpreter
// in internal/prog — run on task ranks: the small-world figures (Figs 2-11,
// Modes, Signal, the Section VIII-A tables and the fault sweep) as one list
// per rank (pattern), the scale cell as its own records, and Figs 12 and 13
// through a per-rank prog.Generator (txnGen's random draw, luGen's rows).
//
// Measurements are virtual-time latencies, deterministic across runs. The
// calibration (fabric.DefaultConfig) makes a 1 MB put cost about 340 us and
// every injected delay 1000 us, matching the paper's test conditions.
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Series identifies one of the paper's test series.
type Series int

// The three test series of Section VIII (Fig 12 adds NewNB+A_A_A_R), plus
// this repo's flush-mode extension series (core.ModeFlush: epochless
// request-based RMA with the foMPI-style scalable lock protocol).
const (
	SeriesMVAPICH Series = iota // vanilla MVAPICH-style RMA, blocking
	SeriesNew                   // new design, blocking synchronizations
	SeriesNewNB                 // new design, nonblocking synchronizations
	SeriesFlush                 // epochless flush mode (foMPI-style)
)

// AllSeries lists the three standard series in presentation order.
var AllSeries = []Series{SeriesMVAPICH, SeriesNew, SeriesNewNB}

// ScaleSeries is AllSeries plus the flush-mode series: the columns of the
// mode-comparison figures (FigModes, FigScale).
var ScaleSeries = []Series{SeriesMVAPICH, SeriesNew, SeriesNewNB, SeriesFlush}

// String implements fmt.Stringer with the paper's series names.
func (s Series) String() string {
	switch s {
	case SeriesMVAPICH:
		return "MVAPICH"
	case SeriesNew:
		return "New"
	case SeriesNewNB:
		return "New nonblocking"
	case SeriesFlush:
		return "Flush"
	}
	return "unknown"
}

// Mode maps a series to its window implementation mode.
func (s Series) Mode() core.Mode {
	switch s {
	case SeriesMVAPICH:
		return core.ModeVanilla
	case SeriesFlush:
		return core.ModeFlush
	}
	return core.ModeNew
}

// Nonblocking reports whether the series uses the I-synchronizations.
func (s Series) Nonblocking() bool { return s == SeriesNewNB }

// Default experiment parameters (paper values).
const (
	// Delay is the injected lateness/work in every microbenchmark.
	Delay = 1000 * sim.Microsecond
	// BigMsg is the 1 MB payload of the delay-propagation tests.
	BigMsg = 1 << 20
)

// us converts virtual nanoseconds to microseconds.
func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// Config returns the interconnect calibration used by all experiments.
func Config() fabric.Config { return fabric.DefaultConfig() }

// grid builds the figure whose every cell is an independent simulation. The
// |rows| x |cols| cells fan across the parallel harness in row-major order,
// so they run on par.Workers() CPUs while the rendered table stays
// bit-for-bit identical to a serial sweep. cell must not touch shared state.
func grid(title, unit, rowHeader string, rows, cols []string, cell func(row, col int) float64) *stats.Table {
	t := stats.NewTable(title, unit, rowHeader, rows, cols)
	flat := par.Map(len(rows)*len(cols), func(j int) float64 {
		return cell(j/len(cols), j%len(cols))
	})
	for i := range t.Cells {
		copy(t.Cells[i], flat[i*len(cols):])
	}
	return t
}

// gridColumns is grid for the figures where one simulation yields a whole
// column (one series' reading of every row): the columns fan across the
// harness, and column(col) must return exactly len(rows) values.
func gridColumns(title, unit, rowHeader string, rows, cols []string, column func(col int) []float64) *stats.Table {
	t := stats.NewTable(title, unit, rowHeader, rows, cols)
	for j, vals := range par.Map(len(cols), column) {
		if len(vals) != len(rows) {
			panic(fmt.Sprintf("bench: %q: column %q has %d values for %d rows", title, cols[j], len(vals), len(rows)))
		}
		for i, v := range vals {
			t.Cells[i][j] = v
		}
	}
	return t
}

// labels renders one axis of a figure: label(x) for every x, in order.
func labels[T any](xs []T, label func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = label(x)
	}
	return out
}

// mean averages a sample of virtual durations into microseconds.
func mean(xs []sim.Time) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum sim.Time
	for _, x := range xs {
		sum += x
	}
	return us(sum) / float64(len(xs))
}

// others returns all ranks except me (a GATS group helper).
func others(n, me int) []int {
	g := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != me {
			g = append(g, i)
		}
	}
	return g
}

// sizeLabel formats a message size the way the paper's x-axes do.
func sizeLabel(s int64) string {
	switch {
	case s >= 1<<20:
		return fmt.Sprintf("%dMB", s>>20)
	case s >= 1<<10:
		return fmt.Sprintf("%dKB", s>>10)
	default:
		return fmt.Sprintf("%dB", s)
	}
}

// SweepSizes is the 4 B - 1 MB x-axis used by Figs 3 and 5.
var SweepSizes = []int64{4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
