package sim

import (
	"slices"
	"strings"
	"testing"
)

// pingTask counts its wakes through a fixed schedule: sleep, yield, wait on
// a signal, exit. Exercises every arming primitive of the Task contract.
type pingTask struct {
	sig   *Signal
	state int
	trace []Time
}

func (t *pingTask) Step(p *Proc) {
	t.trace = append(t.trace, p.now())
	switch t.state {
	case 0:
		t.state = 1
		if p.TaskSleep(5, "warmup") {
			return
		}
		fallthrough
	case 1:
		t.state = 2
		p.TaskYield()
	case 2:
		t.state = 3
		t.sig.Wait(p, "data")
	case 3:
		p.TaskExit()
	}
}

// TestTaskSchedule drives a task through sleep, yield, signal wait and exit,
// checking each wake fires at the right virtual time.
func TestTaskSchedule(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k)
	task := &pingTask{sig: sig}
	k.SpawnTask("pinger", task)
	k.At(20, sig.Fire)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 5, 5, 20}
	if len(task.trace) != len(want) {
		t.Fatalf("trace %v, want %v", task.trace, want)
	}
	for i, at := range want {
		if task.trace[i] != at {
			t.Fatalf("step %d at t=%d, want t=%d (trace %v)", i, task.trace[i], at, want)
		}
	}
}

type zeroSleepTask struct{ steps int }

func (t *zeroSleepTask) Step(p *Proc) {
	t.steps++
	if p.TaskSleep(0, "no-op") {
		panic("TaskSleep(0) must not arm")
	}
	p.TaskExit()
}

func TestTaskSleepZeroDoesNotArm(t *testing.T) {
	k := NewKernel()
	task := &zeroSleepTask{}
	k.SpawnTask("zero", task)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if task.steps != 1 {
		t.Fatalf("got %d steps, want 1", task.steps)
	}
}

// forgetfulTask returns from Step without arming a wake or exiting — a
// contract violation that must abort the run instead of silently dropping
// the proc.
type forgetfulTask struct{}

func (forgetfulTask) Step(*Proc) {}

func TestTaskWithoutWakeAborts(t *testing.T) {
	k := NewKernel()
	k.SpawnTask("forgetful", forgetfulTask{})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "without arming a wake") {
		t.Fatalf("want arming-contract error, got %v", err)
	}
}

// panicTask panics inside Step; the error shape must match a goroutine
// proc's panic so failure handling is identical across the two forms.
type panicTask struct{}

func (panicTask) Step(*Proc) { panic("boom") }

func TestTaskPanicAborts(t *testing.T) {
	k := NewKernel()
	k.SpawnTask("bomb", panicTask{})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `proc "bomb" panicked: boom`) {
		t.Fatalf("want proc-panic error, got %v", err)
	}
}

// TestTaskProcParity runs the same program — sleep 3, then wait for a
// signal fired at t=10, then finish at t=10 — as a goroutine proc and as a
// task, and checks the observable completion times are identical.
func TestTaskProcParity(t *testing.T) {
	run := func(asTask bool) []Time {
		k := NewKernel()
		sig := NewSignal(k)
		var done []Time
		if asTask {
			k.SpawnTask("r", &parityTask{sig: sig, done: &done})
		} else {
			k.Spawn("r", func(p *Proc) {
				p.Sleep(3)
				sig.Wait(p, "data")
				done = append(done, p.now())
			})
		}
		k.At(10, sig.Fire)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	gor, task := run(false), run(true)
	if len(gor) != 1 || len(task) != 1 || gor[0] != task[0] {
		t.Fatalf("goroutine %v vs task %v, want identical", gor, task)
	}
}

type parityTask struct {
	sig   *Signal
	done  *[]Time
	state int
}

func (t *parityTask) Step(p *Proc) {
	switch t.state {
	case 0:
		t.state = 1
		if p.TaskSleep(3, "sleep") {
			return
		}
		fallthrough
	case 1:
		t.state = 2
		t.sig.Wait(p, "data")
	case 2:
		*t.done = append(*t.done, p.now())
		p.TaskExit()
	}
}

// TestNeverStartedProcDiagnostics pins the lazy-spawn diagnostic: a proc
// whose start event lies beyond the watchdog horizon has no goroutine yet
// and must report "not yet started", not an empty wait tag.
func TestNeverStartedProcDiagnostics(t *testing.T) {
	k := NewKernel()
	k.SetWatchdog(0, 50)
	k.SpawnTaskAt(1000, "late", Body(func(p *Proc) {}))
	k.Spawn("spinner", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1)
		}
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("want watchdog error, got %v", err)
	}
	if !strings.Contains(err.Error(), `late: waiting on "not yet started"`) {
		t.Fatalf("report should name the never-started proc: %v", err)
	}
}

// TestNeverStartedTaskDiagnostics is the same pin for task procs.
func TestNeverStartedTaskDiagnostics(t *testing.T) {
	k := NewKernel()
	k.SetWatchdog(0, 50)
	k.SpawnTaskAt(1000, "late", &zeroSleepTask{})
	k.Spawn("spinner", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1)
		}
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `late: waiting on "not yet started"`) {
		t.Fatalf("report should name the never-started task proc: %v", err)
	}
}

// TestTaskDeadlockReport checks a parked task proc shows its wait tag in
// deadlock reports like a goroutine proc would.
func TestTaskDeadlockReport(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k)
	k.SpawnTask("stuck", &parityTask{sig: sig, done: new([]Time), state: 1})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), `stuck: waiting on "data"`) {
		t.Fatalf("report should show the task's wait tag: %v", err)
	}
}

// TestTaskStepAllocs pins the spawn-free fast path at zero steady-state
// allocations per step.
func TestTaskStepAllocs(t *testing.T) {
	k := NewKernel()
	task := &benchTask{n: 1 << 30}
	p := k.SpawnTask("stepper", task)
	k.pop() // consume the start event; we drive Step by hand below
	for i := 0; i < 1024; i++ {
		k.stepTask(p)
		k.pop() // discard the armed wake so time does not advance
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			k.stepTask(p)
			k.pop()
		}
	})
	if allocs != 0 {
		t.Errorf("task step: %.1f allocs/run, want 0", allocs)
	}
}

// TestTaskWaitsInlineOnGoroutineProc pins the form-agnostic half of the wake
// sources: called from a goroutine proc, TaskSleep and TaskYield block inline
// for exactly their virtual duration, report "continue" and leave the proc
// unarmed, and TaskExit is a no-op — the body goes on and ends by returning.
func TestTaskWaitsInlineOnGoroutineProc(t *testing.T) {
	k := NewKernel()
	var trace []Time
	k.Spawn("inline", func(p *Proc) {
		if p.TaskSleep(5, "nap") || p.Armed() {
			t.Error("TaskSleep armed a goroutine proc")
		}
		trace = append(trace, p.now())
		if p.TaskSleep(0, "no-op") {
			t.Error("TaskSleep(0) must not arm")
		}
		k.At(p.now(), func() { trace = append(trace, -1) }) // runnable now: the yield lets it go first
		if p.TaskYield() || p.Armed() {
			t.Error("TaskYield armed a goroutine proc")
		}
		trace = append(trace, p.now())
		p.TaskExit()
		p.Sleep(2) // still schedulable: TaskExit did not finish the proc
		trace = append(trace, p.now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{5, -1, 5, 7}; !slices.Equal(trace, want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
}

// stuckTask waits, from inside a named helper frame, on a signal nobody
// fires.
type stuckTask struct{ sig *Signal }

func (t *stuckTask) Step(p *Proc) { t.waitForever(p) }

//go:noinline
func (t *stuckTask) waitForever(p *Proc) { t.sig.Wait(p, "never") }

// driverBody sleeps past the task's start. The task's Step used to run on
// this body's goroutine, underneath these frames; now it never does.
//
//go:noinline
func driverBody(p *Proc) { p.Sleep(10) }

// TestTaskReportIsTagAndProviderState: a task proc has no stack while it
// waits, so its report section is its wait tag plus the diag providers'
// state — no call site, whatever Spawn proc is parked while it runs (the
// driver here sleeps across the task's start).
func TestTaskReportIsTagAndProviderState(t *testing.T) {
	k := NewKernel()
	k.AddDiagProvider(func(p *Proc) string { return "state of " + p.Name() })
	k.Spawn("driver", driverBody)
	k.SpawnTaskAt(5, "stuck", &stuckTask{sig: NewSignal(k)})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	want := "blocked procs:\n  stuck: waiting on \"never\"\n    state of stuck"
	if _, report, _ := strings.Cut(err.Error(), "\n"); report != want {
		t.Fatalf("report\n%s\nwant\n%s", report, want)
	}
}
