package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

// The registry is the one list of figures: ids must be unique (they key -fig
// and the -json object) and every row must say what it is for -list.
func TestRegistryRows(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if e.id == "" || seen[e.id] {
			t.Errorf("experiment id %q is empty or repeated", e.id)
		}
		seen[e.id] = true
		if e.paper == "" || e.desc == "" || e.run == nil {
			t.Errorf("experiment %q lacks a paper mapping, a description or a generator", e.id)
		}
	}
}

func TestListPrintsEveryID(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, &errOut)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != len(experiments) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(experiments), &out)
	}
	for i, e := range experiments {
		if got := strings.Fields(lines[i])[0]; got != e.id {
			t.Errorf("-list line %d names %q, want %q", i, got, e.id)
		}
	}
}

func TestUnknownFigureNamesValidIDs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-fig", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown -fig exited 0")
	}
	for _, e := range experiments {
		if !strings.Contains(errOut.String(), e.id) {
			t.Errorf("error %q does not name valid id %q", &errOut, e.id)
		}
	}
	if out.Len() != 0 {
		t.Errorf("unknown -fig printed to stdout: %q", &out)
	}
}

// -fig selects one registry row — Fig 12 was a binary of its own before the
// registry reached it — and -json writes what stdout rendered.
func TestFigureJSONRoundTrips(t *testing.T) {
	file := filepath.Join(t.TempDir(), "fig.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-fig", "12", "-json", file}, &out, &errOut); code != 0 {
		t.Fatalf("-fig 12 exited %d: %s", code, &errOut)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var figures map[string]*stats.Table
	if err := json.Unmarshal(raw, &figures); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	tb := figures["12"]
	if len(figures) != 1 || tb == nil {
		t.Fatalf("-json holds %d figures, want exactly \"12\"", len(figures))
	}
	if got := tb.String() + "\n"; got != out.String() {
		t.Errorf("decoded table differs from stdout:\n--- json ---\n%s--- stdout ---\n%s", got, &out)
	}
}
