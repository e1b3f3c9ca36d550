package fuzz

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// fingerprint compresses everything a run exposes into a comparable string:
// final window memories, every fetched result, every field of every trace
// span, the kernel event count and every row of the world's counters (each
// rank's core and fabric counters, and the topology engine's). Two runs with
// equal fingerprints executed the same observable history.
func fingerprint(r *RunResult) string {
	out := fmt.Sprintf("err=%v kernel_events=%d\n", r.Err, r.KernelEvents)
	for wi, byRank := range r.Mems {
		for rk, mem := range byRank {
			out += fmt.Sprintf("mem w%d r%d %x\n", wi, rk, mem)
		}
	}
	for rk, bufs := range r.Fetched {
		for i, b := range bufs {
			out += fmt.Sprintf("fetched r%d #%d %x\n", rk, i, b)
		}
	}
	for _, s := range r.Spans {
		out += fmt.Sprintf("span %+v\n", s)
	}
	for row := 0; row <= r.Counters.Ranks; row++ {
		out += fmt.Sprintf("counters row %d: %v\n", row, r.Counters.Snapshot(row))
	}
	return out
}

// total is counter name summed over every row of s.
func total(s *metrics.Set, name string) (v int64) {
	id := metrics.Lookup(name)
	for r := 0; r <= s.Ranks; r++ {
		v += s.Row(r).Get(id)
	}
	return v
}

// TestTaskFormMatchesGoroutineForm pins the campaign's rank form: every
// program runs as task ranks (ExecuteWith), and its observable history must
// be the one the same compiled program makes on goroutine ranks — in every
// mode, on the pristine, lossy, fat-tree and signal-transport arms.
func TestTaskFormMatchesGoroutineForm(t *testing.T) {
	arms := map[string]Arm{
		"plain":   {},
		"lossy":   {Lossy: true},
		"fattree": {Topo: topo.FatTree},
		"signal":  {Signal: true},
	}
	for name, arm := range arms {
		for _, mode := range []core.Mode{core.ModeNew, core.ModeVanilla, core.ModeFlush} {
			for _, seed := range []uint64{1, 2, 7, 19, 42} {
				p := GenerateFor(seed, mode)
				task := execute(p, mode, arm, nil, true)
				if task.Err != nil {
					t.Fatalf("%s %v seed %d: %v", name, mode, seed, task.Err)
				}
				if got, want := fingerprint(task), fingerprint(execute(p, mode, arm, nil, false)); got != want {
					t.Fatalf("%s %v seed %d: task ranks diverge from goroutine ranks\n--- goroutine ---\n%.2000s\n--- task ---\n%.2000s",
						name, mode, seed, want, got)
				}
			}
		}
	}
}
