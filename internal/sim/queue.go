package sim

import "math/bits"

// The event queue orders by construction what the program already emits in
// order, and keeps one general structure — the 4-ary heap — for everything
// else. Both sides are keyed on the full (at, seq) pair and every pop is a
// two-way merge between them, so correctness never depends on which side an
// event was put on; the split only decides what a push and a pop cost.
//
// What the wheels can order by construction: band-0 events. Their seq is
// minted by the kernel's counter at the push, so among band-0 events of one
// instant push order IS firing order, and a FIFO per instant needs no sort.
//
//   - Level 0 is the open window: wheelSlots one-nanosecond slots starting at
//     win<<wheelShift, each a FIFO of the band-0 events of exactly that
//     instant, with one occupancy bit per slot — the earliest wheel event is
//     the head of slot TrailingZeros64(occ0).
//   - Level 1 is the wheelBuckets-1 windows after the open one: per window an
//     unsorted LIFO list, newest first. When level 0 has drained and the next
//     occupied window is due, its list is relinked — not copied — into the
//     level-0 slots; walking newest to oldest and prepending leaves every slot
//     oldest first.
//
// What goes to the heap instead: band-1 events (their (owner, counter) key
// is not push order), events below the open window (the sharded merge and
// Drain after a peek opened a later window), events beyond level 1's reach,
// and every event while fewer than deepQueue are pending — at that depth a
// heap sift is a handful of L1 hits and cheaper than the wheels' two-sided
// pop. A kernel that never gets that deep never allocates the wheels.
//
// The constants were measured on the four benchmark workloads (peak pending
// events: patterns 12, fuzz_chaos 217, apps 802, scale512 6 904) and on the
// scale512 traffic in particular: all but 0.4 % of its band-0 pushes land
// inside a 16 µs reach, 41 % of them inside the open 64 ns window, and a
// window that opens relinks 33 events on average. A single 256 x 64 ns wheel
// with a heap for the open bucket was also measured and bought little more
// than a third of this (EXPERIMENTS, "Event queue and credit wake-ups").
const (
	deepQueue    = 16  // pending events from which band-0 pushes use the wheels
	wheelShift   = 6   // log2 of the window width in ns
	wheelSlots   = 64  // 1 ns slots of the open window: one occupancy word
	wheelBuckets = 256 // windows within reach, the open one included
)

// node is one wheel-resident event: the event and the slab index of its
// successor in whatever list holds it (a level-0 FIFO, a level-1 list, or the
// free list). Index 0 is the nil link; slab[0] is never used.
type node struct {
	ev   event
	next int32
}

// fifo is one level-0 slot: slab indices of its first and last node, valid
// while the slot's occupancy bit is set.
type fifo struct{ head, tail int32 }

// wheels is the by-construction side of the queue, allocated by the first
// push that finds deepQueue events pending.
type wheels struct {
	slab []node
	free int32 // head of the free list, 0 when empty

	win  int64 // the open window is [win<<wheelShift, (win+1)<<wheelShift)
	occ0 uint64
	occ1 [wheelBuckets / 64]uint64 // bucket b's bit: window ≡ b (mod wheelBuckets) is occupied
	l0   [wheelSlots]fifo
	l1   [wheelBuckets]int32 // list heads, newest first, 0 when empty
}

// wheelPush files the band-0 event e under the wheels and reports whether it
// could: false means e activates below the open window or beyond level 1's
// reach and belongs on the heap.
func (k *Kernel) wheelPush(e *event) bool {
	w := k.w
	if w == nil {
		w = &wheels{slab: make([]node, 1, 4*deepQueue)}
		k.w = w
	}
	if k.wn == 0 {
		// Empty wheels are re-anchored at the clock, below which nothing can
		// be pushed any more, so the reach always starts from where the run is.
		w.win = k.now >> wheelShift
	}
	d := uint64(e.at>>wheelShift - w.win)
	if d >= wheelBuckets {
		return false
	}
	i := w.free
	if i != 0 {
		w.free = w.slab[i].next
	} else {
		i = int32(len(w.slab))
		w.slab = append(w.slab, node{})
	}
	n := &w.slab[i]
	n.ev = *e
	k.wn++
	if d == 0 {
		s := uint(e.at) % wheelSlots
		f := &w.l0[s]
		if w.occ0&(1<<s) == 0 {
			w.occ0 |= 1 << s
			f.head = i
		} else {
			w.slab[f.tail].next = i
		}
		f.tail = i
		return true
	}
	b := uint(e.at>>wheelShift) % wheelBuckets
	n.next = w.l1[b]
	w.l1[b] = i
	w.occ1[b/64] |= 1 << (b % 64)
	return true
}

// front makes level 0 hold the wheels' earliest event and returns its
// activation time. If level 0 has drained, that means opening the next
// occupied level-1 window — unless that window starts after bound, in which
// case it stays closed (so that pushes below it keep landing in the wheels)
// and front returns its start time and false: nothing here is due by bound.
// The wheels must not be empty.
func (w *wheels) front(bound Time) (Time, bool) {
	if w.occ0 == 0 {
		d := w.nextWindow()
		if start := (w.win + d) << wheelShift; start > bound {
			return start, false
		}
		w.open(d)
	}
	return w.win<<wheelShift + Time(bits.TrailingZeros64(w.occ0)), true
}

// nextWindow returns how many windows after the open one the first occupied
// level-1 bucket lies (1 .. wheelBuckets-1). Level 1 must not be empty. The
// open window's own bucket is never occupied, so a circular scan that starts
// above it and ends on its word's low bits covers every bucket once.
func (w *wheels) nextWindow() int64 {
	cur := uint(w.win) % wheelBuckets
	wi, bi := cur/64, cur%64
	if m := w.occ1[wi] >> bi >> 1; m != 0 {
		return int64(bits.TrailingZeros64(m)) + 1
	}
	for j := uint(1); ; j++ {
		if m := w.occ1[(wi+j)%uint(len(w.occ1))]; m != 0 {
			return int64(j*64-bi) + int64(bits.TrailingZeros64(m))
		}
	}
}

// open advances the open window by d and relinks that window's level-1 list
// into the (drained) level-0 slots. The list is newest first; prepending each
// node to its slot leaves every slot in push order, which for band-0 events
// is seq order.
func (w *wheels) open(d int64) {
	w.win += d
	b := uint(w.win) % wheelBuckets
	i := w.l1[b]
	w.l1[b] = 0
	w.occ1[b/64] &^= 1 << (b % 64)
	for i != 0 {
		n := &w.slab[i]
		next := n.next
		s := uint(n.ev.at) % wheelSlots
		f := &w.l0[s]
		if w.occ0&(1<<s) == 0 {
			w.occ0 |= 1 << s
			f.tail = i
		} else {
			n.next = f.head
		}
		f.head = i
		i = next
	}
}

// head returns the wheels' earliest event, which front has made the head of
// level 0's first occupied slot.
func (w *wheels) head() *event {
	return &w.slab[w.l0[bits.TrailingZeros64(w.occ0)].head].ev
}

// take removes the head of level 0's first occupied slot into e and recycles
// its node. The references are dropped so a recycled node pins nothing.
func (k *Kernel) take(e *event) {
	w := k.w
	s := uint(bits.TrailingZeros64(w.occ0))
	f := &w.l0[s]
	i := f.head
	n := &w.slab[i]
	*e = n.ev
	if i == f.tail {
		w.occ0 &^= 1 << s
	} else {
		f.head = n.next
	}
	n.ev.fn, n.ev.arg = nil, nil
	n.next = w.free
	w.free = i
	k.wn--
}

// popMerged is pop for a kernel with events in the wheels: it removes the
// earliest event by (at, seq) across both sides into e, unless that event
// activates after k.until, in which case it reports false and removes
// nothing.
func (k *Kernel) popMerged(e *event) bool {
	w := k.w
	bound := k.until
	var top *event
	if len(k.heap) > 0 {
		top = &k.heap[0]
		if top.at < bound {
			bound = top.at
		}
	}
	if at, ok := w.front(bound); ok && at <= k.until {
		if top == nil || w.head().before(top) {
			k.take(e)
			return true
		}
	}
	// The wheels' earliest event is behind the heap's, or behind until.
	if top == nil || top.at > k.until {
		return false
	}
	*e = k.pop()
	return true
}
