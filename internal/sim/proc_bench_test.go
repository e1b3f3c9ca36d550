package sim

import "testing"

// BenchmarkParkResume measures a wake that crosses goroutines: two procs
// yielding in alternation, so each op is one park, the other proc's wake
// event run by the parking proc, and one token hand-off (a single goroutine
// switch). This is the shape benchmarks/ times as sim.handoff_ns.
func BenchmarkParkResume(b *testing.B) {
	benchYielders(b, 2)
}

// BenchmarkSelfWake measures the zero-switch path: a single proc yielding in
// a loop runs its own wake event and returns, so each op is one park plus
// one event.
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
// dispatch plus one wake event and no goroutine switch at all.
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
