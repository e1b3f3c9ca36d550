// Package stats renders the benchmark harness's paper-style result tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple labeled grid for paper-style reporting: one row per
// x-axis point, one column per test series.
type Table struct {
	Title     string
	Unit      string
	RowHeader string
	Cols      []string
	Rows      []string
	Cells     [][]float64 // [row][col]
}

// NewTable allocates a table with the given shape.
func NewTable(title, unit, rowHeader string, rows, cols []string) *Table {
	cells := make([][]float64, len(rows))
	for i := range cells {
		cells[i] = make([]float64, len(cols))
	}
	return &Table{Title: title, Unit: unit, RowHeader: rowHeader, Rows: rows, Cols: cols, Cells: cells}
}

// Set stores a cell by labels; it panics on unknown labels.
func (t *Table) Set(row, col string, v float64) {
	t.Cells[t.rowIndex(row)][t.colIndex(col)] = v
}

// Get reads a cell by labels.
func (t *Table) Get(row, col string) float64 {
	return t.Cells[t.rowIndex(row)][t.colIndex(col)]
}

func (t *Table) rowIndex(label string) int {
	for i, r := range t.Rows {
		if r == label {
			return i
		}
	}
	panic(fmt.Sprintf("stats: unknown row %q in table %q", label, t.Title))
}

func (t *Table) colIndex(label string) int {
	for i, c := range t.Cols {
		if c == label {
			return i
		}
	}
	panic(fmt.Sprintf("stats: unknown column %q in table %q", label, t.Title))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&b, " [%s]", t.Unit)
	}
	b.WriteByte('\n')

	width := len(t.RowHeader)
	for _, r := range t.Rows {
		if len(r) > width {
			width = len(r)
		}
	}
	colW := make([]int, len(t.Cols))
	for j, c := range t.Cols {
		colW[j] = len(c)
		for i := range t.Rows {
			s := formatCell(t.Cells[i][j])
			if len(s) > colW[j] {
				colW[j] = len(s)
			}
		}
	}
	fmt.Fprintf(&b, "  %-*s", width, t.RowHeader)
	for j, c := range t.Cols {
		fmt.Fprintf(&b, "  %*s", colW[j], c)
	}
	b.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "  %-*s", width, r)
		for j := range t.Cols {
			fmt.Fprintf(&b, "  %*s", colW[j], formatCell(t.Cells[i][j]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// formatCell prints a value compactly (integers without decimals).
func formatCell(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}
