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

// goldenOrder is the (time, proc, step) transcript of the mixed world below.
// Which goroutine pops an event must never show in it, nor which side of the
// queue held it: order is decided by the (at, seq) key alone.
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
		p.Sleep(5)
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

// goldenCrossOrderDeep is the (time, event) transcript of the deep world
// below. A name is the band ("z": band 0, "x<owner>": band 1) and the push
// number; at one instant all z fire in push order, then all x by owner and,
// within an owner, in push order — however they were pushed and whichever
// side of the queue held them.
const goldenCrossOrderDeep = `10 z.5
10 z.11
10 x-1.10
10 x0.1
10 z.33
10 x0.9
10 x0.32
10 x1.2
10 x1.8
10 x1.31
10 x2.3
10 x2.7
10 x3.4
10 x3.6
10 x3.34
100 z.17
100 z.25
100 x-1.16
100 x-1.24
100 x-1.26
100 x0.15
100 z.39
100 x-1.38
100 x0.23
100 x0.27
100 x1.14
100 x1.22
100 x1.28
100 x1.37
100 x2.13
100 x2.21
100 x2.29
100 x2.36
100 x3.12
100 x3.20
100 x3.30
100 x3.40
130 z.42
130 x0.35
130 x1.19
130 x2.41
130 x3.18
200 z.43
`

// TestGoldenCrossOrderDeep pins the firing order of band-0 and band-1 events
// that share instants in a deep queue: five owners (-1 .. 3) pushed ascending,
// descending and from inside the instant being drained — in the open window,
// in a later window that is opened only after those pushes, and in the window
// after that.
func TestGoldenCrossOrderDeep(t *testing.T) {
	k := NewKernel()
	var b strings.Builder
	n := 0
	var inside map[string]func()
	fire := func(x any) {
		name := x.(string)
		fmt.Fprintf(&b, "%d %s\n", k.Now(), name)
		if push := inside[name]; push != nil {
			push()
		}
	}
	z := func(at Time) {
		n++
		k.AtCall(at, fire, fmt.Sprintf("z.%d", n))
	}
	x := func(at Time, owners ...int) {
		for _, owner := range owners {
			n++
			k.AtCross(at, fire, fmt.Sprintf("x%d.%d", owner, n), owner, 0)
		}
	}
	inside = map[string]func(){
		// Pushed while t=10 drains with owners 1, 2 and 3 still pending there:
		// a smaller owner than those, the owner firing, band 0, the largest.
		"x0.1": func() { x(10, 1, 0); z(10); x(10, 3) },
		// The same from inside t=100, and two windows' worth of later events.
		"x0.15": func() {
			x(130, 0)
			x(100, 2, 1, -1)
			z(100)
			x(100, 3)
			x(130, 2)
			z(130)
			z(200)
		},
	}
	for i := 0; i < deepQueue; i++ { // keeps the queue deep to the end
		k.AtCall(Second, func(any) {}, nil)
	}
	// t=10, in the open window: ascending, band 0, descending, band 0.
	x(10, 0, 1, 2, 3)
	z(10)
	x(10, 3, 2, 1, 0, -1)
	z(10)
	// t=100, a window ahead: descending twice, band 0 between, ascending; and
	// t=130, the window after, descending.
	x(100, 3, 2, 1, 0, -1)
	z(100)
	x(130, 3, 1)
	x(100, 3, 2, 1, 0, -1)
	z(100)
	x(100, -1, 0, 1, 2, 3)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenCrossOrderDeep {
		t.Fatalf("event order changed:\n--- got\n%s--- want\n%s", got, goldenCrossOrderDeep)
	}
}
