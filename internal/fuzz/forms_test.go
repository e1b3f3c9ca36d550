package fuzz

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// fingerprint compresses everything a run exposes into a comparable string:
// final window memories, every fetched result, per-window statistics, every
// field of every trace span, the kernel event count, the topology engine's
// congestion summary and, on a lossy fabric, every rank's reliability
// counters. Two runs with equal fingerprints executed the same observable
// history.
func fingerprint(r *RunResult) string {
	out := fmt.Sprintf("err=%v kernel_events=%d congestion=%+v\n", r.Err, r.KernelEvents, r.Congestion)
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
	for rk, wins := range r.Stats {
		for wi, st := range wins {
			out += fmt.Sprintf("stats r%d w%d %+v\n", rk, wi, st)
		}
	}
	for _, s := range r.Spans {
		out += fmt.Sprintf("span %+v\n", s)
	}
	for rk, st := range r.Faults {
		out += fmt.Sprintf("faults r%d %+v\n", rk, st)
	}
	return out
}

// TestTaskFormMatchesGoroutineForm pins the campaign's rank form: every
// program runs as task ranks (ExecuteWith), and its observable history must
// be the one the same compiled program makes on goroutine ranks — in every
// mode, on the pristine, lossy, fat-tree and signal-transport arms.
func TestTaskFormMatchesGoroutineForm(t *testing.T) {
	arms := map[string]func(p *Program) ExecOptions{
		"plain": func(*Program) ExecOptions { return ExecOptions{} },
		"lossy": func(p *Program) ExecOptions {
			fp := LossyProfile(p.Seed, p.NRanks)
			return ExecOptions{Faults: &fp}
		},
		"fattree": func(*Program) ExecOptions { return ExecOptions{Topo: topo.FatTree} },
		"signal":  func(*Program) ExecOptions { return ExecOptions{Signal: true} },
	}
	for name, arm := range arms {
		for _, mode := range []core.Mode{core.ModeNew, core.ModeVanilla, core.ModeFlush} {
			for _, seed := range []uint64{1, 2, 7, 19, 42} {
				p := Generate(seed)
				if mode == core.ModeFlush {
					p = GenerateFlush(seed)
				}
				task := execute(p, mode, arm(p), true)
				if task.Err != nil {
					t.Fatalf("%s %v seed %d: %v", name, mode, seed, task.Err)
				}
				if got, want := fingerprint(task), fingerprint(execute(p, mode, arm(p), false)); got != want {
					t.Fatalf("%s %v seed %d: task ranks diverge from goroutine ranks\n--- goroutine ---\n%.2000s\n--- task ---\n%.2000s",
						name, mode, seed, want, got)
				}
			}
		}
	}
}
