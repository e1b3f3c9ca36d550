package sim

import (
	"fmt"
	"strings"
	"testing"
)

// orderTask is the member of the golden world written as a Task: sleep,
// yield, wait on the shared signal, exit — logging each state on entry. It
// returns whenever the proc is armed, so it runs stepped as a task proc and,
// in a single Step, inline on a goroutine proc.
type orderTask struct {
	log   func(who, step string)
	sig   *Signal
	state int
}

func (t *orderTask) Step(p *Proc) {
	for !p.Armed() {
		t.log(p.Name, fmt.Sprintf("step%d", t.state))
		t.state++
		switch t.state {
		case 1:
			p.TaskSleep(10, "nap")
		case 2:
			p.TaskYield()
		case 3:
			t.sig.Wait(p, "data")
		case 4:
			p.TaskExit()
			return
		}
	}
}

// goldenOrder is the (time, proc, step) transcript of the mixed world below,
// captured on the two-rendezvous kernel-goroutine scheduler. Which goroutine
// pops an event must never show in it: order is decided by the heap's
// (at, seq) key alone.
const goldenOrder = `0 a start
0 b start
0 t step0
5 timer fire5
10 timer tie10
10 a woke10
10 b woke10
10 t step1
10 a yielded
10 t step2
10 c start
12 c woke12
20 timer fire20
20 b signalled
20 a signalled
20 t step3
20 c signalled
20 b yielded
25 a done
`

// TestGoldenEventOrder runs goroutine procs, a task, At timers, same-time
// ties and a proc spawned mid-run through every wake primitive and requires
// the literal transcript — whether the task is stepped as a task proc or
// runs inline on a goroutine proc.
func TestGoldenEventOrder(t *testing.T) {
	for _, form := range []string{"task", "goroutine"} {
		t.Run(form, func(t *testing.T) { goldenEventOrder(t, form == "task") })
	}
}

func goldenEventOrder(t *testing.T, asTask bool) {
	k := NewKernel()
	var b strings.Builder
	log := func(who, step string) { fmt.Fprintf(&b, "%d %s %s\n", k.Now(), who, step) }
	sig := NewSignal(k)

	k.Spawn("a", func(p *Proc) {
		log("a", "start")
		p.Sleep(10)
		log("a", "woke10")
		p.Yield()
		log("a", "yielded")
		k.Spawn("c", func(p *Proc) { // spawned mid-run, from proc context
			log("c", "start")
			p.Sleep(2)
			log("c", "woke12")
			sig.Wait(p, "data")
			log("c", "signalled")
		})
		sig.Wait(p, "data")
		log("a", "signalled")
		p.Compute(5)
		log("a", "done")
	})
	k.Spawn("b", func(p *Proc) {
		log("b", "start")
		p.Sleep(10) // ties with a's wake and the task's at t=10
		log("b", "woke10")
		sig.Wait(p, "data")
		log("b", "signalled")
		p.Yield()
		log("b", "yielded")
	})
	ot := &orderTask{log: log, sig: sig}
	if asTask {
		k.SpawnTask("t", ot)
	} else {
		k.Spawn("t", ot.Step)
	}
	k.At(5, func() { log("timer", "fire5") })
	k.At(10, func() { log("timer", "tie10") })
	k.At(20, func() { log("timer", "fire20"); sig.Fire() })

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenOrder {
		t.Fatalf("event order changed:\n--- got\n%s--- want\n%s", got, goldenOrder)
	}
}
