package sim

import "testing"

// BenchmarkParkResume measures two Spawn procs yielding in alternation: each
// op is one park (a switch from the body's coroutine to the event loop), the
// other proc's wake event and its resume (a switch back).
func BenchmarkParkResume(b *testing.B) {
	benchYielders(b, 2)
}

// BenchmarkSelfWake measures a single Spawn proc yielding in a loop: each
// op is one park, its own wake event and one resume — the same coroutine
// round trip as ParkResume, with one proc. This is the shape benchmarks/
// times as sim.handoff_ns.
func BenchmarkSelfWake(b *testing.B) {
	benchYielders(b, 1)
}

func benchYielders(b *testing.B, n int) {
	k := NewKernel()
	for i := 0; i < n; i++ {
		k.Spawn("yielder", func(p *Proc) {
			for i := 0; i < b.N; i += n {
				p.Yield()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTaskStep measures the spawn-free fast path: a sim.Task state
// machine re-arming a zero-delay wake each step, so each op is one Step
// dispatch plus one wake event and no coroutine switch at all.
func BenchmarkTaskStep(b *testing.B) {
	k := NewKernel()
	t := &benchTask{n: b.N}
	k.SpawnTask("stepper", t)
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

type benchTask struct{ i, n int }

func (t *benchTask) Step(p *Proc) {
	if t.i++; t.i >= t.n {
		p.TaskExit()
		return
	}
	p.TaskYield()
}
