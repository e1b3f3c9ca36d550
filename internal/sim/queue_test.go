package sim

import (
	"sort"
	"testing"
	"unsafe"
)

// queueModel is the reference the event queue is checked against: every
// pending event in one slice kept sorted by (at, band, order), where order
// is the model's own numbering — the push count for band 0, (owner, per-owner
// count) for band 1 — so it shares no arithmetic with the kernel's seq.
type queueModel struct {
	t       testing.TB
	k       *Kernel
	pending []*modelEvent
	pushes  int // band-0 pushes so far
	cross   [8]int
	budget  int // events the script may still push
}

type modelEvent struct {
	m     *queueModel
	at    Time
	band  int
	owner int
	order int
	// On firing, the event pushes kids children kidDelay ahead (0: at the
	// instant being drained), alternating bands; each child carries one
	// generation less.
	kids     int
	gens     int
	kidDelay Time
}

func (a *modelEvent) before(b *modelEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.band != b.band {
		return a.band < b.band
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.order < b.order
}

// push schedules one event on the kernel and files it in the model.
func (m *queueModel) push(at Time, band, owner, kids, gens int, kidDelay Time) {
	if m.budget <= 0 {
		return
	}
	m.budget--
	e := &modelEvent{m: m, at: at, band: band, kids: kids, gens: gens, kidDelay: kidDelay}
	if band == 0 {
		e.order = m.pushes
		m.pushes++
		m.k.AtCall(at, modelFire, e)
	} else {
		e.owner = owner
		e.order = m.cross[owner+1]
		m.cross[owner+1]++
		m.k.AtCross(at, modelFire, e, owner, 0)
	}
	i := sort.Search(len(m.pending), func(i int) bool { return e.before(m.pending[i]) })
	m.pending = append(m.pending, nil)
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = e
}

// modelFire is every scripted event's callback: the event that fires must be
// the model's earliest, at the kernel's clock.
func modelFire(x any) {
	e := x.(*modelEvent)
	m := e.m
	if len(m.pending) == 0 || m.pending[0] != e {
		var want *modelEvent
		if len(m.pending) > 0 {
			want = m.pending[0]
		}
		m.t.Fatalf("fired %+v, the model's earliest is %+v", *e, want)
	}
	if m.k.Now() != e.at {
		m.t.Fatalf("event for t=%d fired at t=%d", e.at, m.k.Now())
	}
	m.pending = m.pending[1:]
	for j := 0; j < e.kids; j++ {
		gens := 0
		if e.gens > 0 {
			gens = e.gens - 1
		}
		kids := 0
		if gens > 0 {
			kids = 1
		}
		m.push(e.at+e.kidDelay, j%2, j%7-1, kids, gens, e.kidDelay)
	}
}

// peek checks nextAt against the model.
func (m *queueModel) peek() {
	at, ok := m.k.nextAt()
	if ok != (len(m.pending) > 0) || ok && at != m.pending[0].at {
		m.t.Fatalf("nextAt = (%d, %v) with %d events pending, the earliest %+v", at, ok, len(m.pending), m.pending)
	}
}

// run executes everything activating at or below until.
func (m *queueModel) run(until Time) {
	if err := m.k.loop(until); err != nil {
		m.t.Fatal(err)
	}
	if len(m.pending) > 0 && m.pending[0].at <= until {
		m.t.Fatalf("loop(%d) left %+v pending", until, *m.pending[0])
	}
}

// queueDelays are the distances a script byte selects from: zero, the edges
// of the 64 ns window and of the 16 384 ns reach, and far beyond both. A
// second byte is added, so every edge is straddled.
var queueDelays = [...]Time{0, 1, 62, 190, 4000, 16383 - 128, 16384, 100_000, Millisecond - 100, Second}

// Script opcodes of FuzzEventQueue (low 4 bits of an op byte; the high 4 bits
// and the following bytes are operands).
const (
	opPush0   = iota // band-0 event at now+delay
	opPush1          // band-1 event, owner from the operand, at now+delay
	opBurst          // 2n events at one instant now+delay, bands alternating
	opParent         // band-0 event whose firing pushes kids children, gens generations deep
	opPeek           // nextAt
	opInstant        // run the next pending instant
	opRun            // run until now+delay
	opDrain          // run to empty
	// Band-1 shapes the sorted slot lists must place: 2n events at one instant
	// now+delay with owners descending (operand bit 0 clear) or interleaved
	// (set), each pushing a child there if bit 1 is set — wide enough, past
	// walkBound, to leave the instant on both sides of the merge.
	opCrossBurst
	// One band-1 event per owner at now+delay, pushed descending; the one of
	// the owner the operand names pushes kids children at that same instant
	// when it fires, bands alternating, band-1 children with smaller owners
	// than events still pending there.
	opCrossParent
	nQueueOps
)

// runQueueScript interprets script against a fresh kernel and its model, and
// returns the drained kernel.
func runQueueScript(t testing.TB, script []byte) *Kernel {
	m := &queueModel{t: t, k: NewKernel(), budget: 1 << 14}
	k := m.k
	pc := 0
	arg := func() int {
		if pc >= len(script) {
			return 0
		}
		pc++
		return int(script[pc-1])
	}
	delay := func() Time { return queueDelays[arg()%len(queueDelays)] + Time(arg()) }
	for pc < len(script) {
		op := arg()
		hi := op >> 4
		switch (op & 15) % nQueueOps {
		case opPush0:
			m.push(k.Now()+delay(), 0, 0, 0, 0, 0)
		case opPush1:
			m.push(k.Now()+delay(), 1, hi%7-1, 0, 0, 0)
		case opBurst:
			at := k.Now() + delay()
			for n := arg() * 2; n > 0; n-- {
				m.push(at, n%2, n%5-1, hi%2, 0, 0)
			}
		case opParent:
			kidDelay := delay()
			m.push(k.Now()+delay(), 0, 0, 1+hi%4, arg(), kidDelay)
		case opCrossBurst:
			at := k.Now() + delay()
			for i, n := 0, arg()*2; i < n; i++ {
				owner := 6 - i%8
				if hi&1 != 0 {
					owner = i*3%8 - 1
				}
				m.push(at, 1, owner, hi>>1&1, 0, 0)
			}
		case opCrossParent:
			at := k.Now() + delay()
			kids := arg()
			for owner := 6; owner >= -1; owner-- {
				if owner == hi%8-1 {
					m.push(at, 1, owner, 1+kids%8, kids>>3&3, 0)
				} else {
					m.push(at, 1, owner, 0, 0, 0)
				}
			}
		case opPeek:
			m.peek()
		case opInstant:
			if at, ok := k.nextAt(); ok {
				m.run(at)
			}
		case opRun:
			m.run(k.Now() + delay())
		case opDrain:
			m.run(Time(1<<62 - 1))
		}
	}
	m.run(Time(1<<62 - 1))
	if len(m.pending) != 0 || len(k.heap) != 0 || k.wn != 0 {
		t.Fatalf("after the drain: %d in the model, %d on the heap, %d in the wheels", len(m.pending), len(k.heap), k.wn)
	}
	if w := k.w; w != nil {
		if w.occ0 != 0 || w.occ1 != [len(w.occ1)]uint64{} {
			t.Fatalf("drained wheels still marked occupied: %#x %#x", w.occ0, w.occ1)
		}
		for s, sl := range w.l0 {
			if sl[0].head != 0 || sl[1].head != 0 {
				t.Fatalf("drained wheels still list nodes under slot %d: %+v", s, sl)
			}
		}
	}
	return k
}

// queueSeeds are the scripts plain `go test` runs: each aims at one place
// where the wheels and the heap hand over to each other. The corpus under
// testdata/fuzz/FuzzEventQueue adds the band-1 shapes: bursts with owners
// descending and interleaved in the open window and in a later one, band-1
// parents pushing into the instant being drained, and 510-event bursts that
// walk past walkBound on both sorted inserts.
var queueSeeds = map[string][]byte{
	// 512 events at one instant, bands mixed, half of them pushing a child
	// at that same instant while the burst drains.
	"same-instant burst": {opBurst | 1<<4, 2, 9, 255, opBurst | 1<<4, 2, 9, 1, opPeek, opDrain},
	// Deep queue far ahead, a peek that opens its window, then pushes below
	// that window from outside the loop: the shape of Shards.mergeFrom.
	"push below the open window": {
		opBurst, 4, 0, 20, opPeek,
		opPush0, 2, 0, opPush1 | 3<<4, 1, 0, opPush0, 3, 7, opPeek, opInstant, opPush0, 0, 0, opPeek, opDrain,
	},
	// Delays on both sides of the 64 ns window, the 16 384 ns reach and 1 ms,
	// pushed while deep.
	"delay edges": {
		opBurst, 1, 0, 16,
		opPush0, 2, 0, opPush0, 2, 1, opPush0, 2, 2, opPush0, 2, 3,
		opPush0, 5, 126, opPush0, 5, 127, opPush0, 5, 128, opPush0, 6, 0, opPush0, 6, 1,
		opPush0, 8, 99, opPush0, 8, 100, opPush0, 8, 101, opPush1, 8, 100, opPush0, 9, 0,
		opPeek, opRun, 4, 0, opPeek, opRun, 6, 0, opPeek, opDrain,
	},
	// Four chains of 200 generations striding 4 µs and four striding 190 ns,
	// kept deep by 40 events parked a second ahead: the open window rolls
	// past level 1's reach many times over.
	"window roll-over": {
		opBurst, 9, 0, 20,
		opParent, 4, 0, 0, 0, 200, opParent, 4, 0, 0, 1, 200, opParent, 4, 0, 0, 2, 200, opParent | 2<<4, 4, 9, 0, 3, 200,
		opParent, 3, 0, 0, 0, 200, opParent, 3, 0, 0, 1, 200, opParent, 3, 0, 0, 2, 200, opParent | 3<<4, 3, 5, 0, 3, 200,
		opRun, 7, 0, opPeek, opDrain,
	},
	// Fill, drain to empty, and come back a second later: empty wheels are
	// re-anchored at the clock.
	"drain then reuse": {
		opBurst, 3, 0, 30, opDrain, opPeek,
		opPush0, 9, 0, opDrain,
		opBurst, 3, 0, 30, opPush0, 1, 0, opPeek, opDrain,
	},
	// One instant that crosses deepQueue upward as it is pushed, downward as
	// it drains, and upward again through the children pushed meanwhile.
	"depth threshold mid-instant": {
		opBurst | 1<<4, 1, 0, 10, opBurst | 1<<4, 1, 0, 10, opPeek, opInstant, opPeek,
		opBurst, 0, 0, 7, opBurst, 0, 0, 2, opInstant, opDrain,
	},
}

// FuzzEventQueue drives the event queue with scripted pushes in both bands,
// peeks and bounded runs, and checks every single pop against the reference
// model. Without -fuzz it runs the seed corpus above — each seed of which
// must actually have reached the wheels, or a retuned constant could turn
// the corpus into heap-only runs that pass silently.
func FuzzEventQueue(f *testing.F) {
	for name, s := range queueSeeds {
		if k := runQueueScript(f, s); k.w == nil {
			f.Fatalf("seed %q never got deep enough to allocate the wheels", name)
		}
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<12 {
			t.Skip()
		}
		runQueueScript(t, script)
	})
}

// TestSortedInsertIsBounded pins by structure — where the events ended up, not
// a stopwatch — that one instant's band-1 events arriving in the worst order
// cost a bounded walk each: 65 536 owners pushed descending are declined to
// the heap, all but the walkBound the slot's list took before the walks got
// that long, whether they are pushed into the open window (the tail-first
// insert) or sit in a level-1 list when its window opens (the head-first
// one). Pushed ascending, every one of them is placed without a walk and the
// heap sees none. Either way they fire in key order.
func TestSortedInsertIsBounded(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size != 48 {
		t.Errorf("node is %d bytes, want 48: the prev link must fit the event's padding", size)
	}
	const n = 1 << 16
	for _, tc := range []struct {
		name       string
		at         Time
		descending bool
	}{
		{"open window, descending", 10, true},
		{"level 1, descending", 1000, true},
		{"open window, ascending", 10, false},
		{"level 1, ascending", 1000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			for i := 0; i < deepQueue; i++ { // these go to the heap and keep the queue deep
				k.AtCall(Second, func(any) {}, nil)
			}
			owners := make([]int, n)
			fired := make([]int, 0, n)
			fire := func(x any) { fired = append(fired, *x.(*int)) }
			for i := range owners {
				owners[i] = i
				if tc.descending {
					owners[i] = n - 1 - i
				}
				k.AtCross(tc.at, fire, &owners[i], owners[i], 0)
			}
			if at, ok := k.nextAt(); !ok || at != tc.at { // opens the level-1 window
				t.Fatalf("nextAt = (%d, %v), want %d", at, ok, tc.at)
			}
			if len(k.heap)+k.wn != deepQueue+n {
				t.Fatalf("%d on the heap + %d in the wheels, want %d events", len(k.heap), k.wn, deepQueue+n)
			}
			if tc.descending && k.wn > walkBound {
				t.Errorf("%d events in the wheels, want at most walkBound = %d: the rest walked further", k.wn, walkBound)
			}
			if !tc.descending && len(k.heap) != deepQueue {
				t.Errorf("%d of %d in-order events were declined to the heap", len(k.heap)-deepQueue, n)
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if len(fired) != n {
				t.Fatalf("%d events fired, want %d", len(fired), n)
			}
			for i, owner := range fired {
				if owner != i {
					t.Fatalf("event %d to fire was owner %d's", i, owner)
				}
			}
		})
	}
}
