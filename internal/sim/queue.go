package sim

import "math/bits"

// The event queue orders by construction what the program already emits in
// order, and keeps one general structure — the 4-ary heap — for everything
// else. Both sides are keyed on the full (at, seq) pair and every pop is a
// two-way merge between them, so correctness never depends on which side an
// event was put on; the split only decides what a push and a pop cost.
//
// What the wheels can order by construction: nearly everything, once it is
// split by band. A band-0 seq is minted by the kernel's counter at the push, so
// among band-0 events of one instant push order IS firing order, and a FIFO
// per instant needs no sort. A band-1 seq is (owner, per-owner counter) and
// sorts after every band-0 seq; the program does not mint those in order, but
// nearly: on scale512 85 % of band-1 pushes carry the largest band-1 key
// pending at their instant. So each instant keeps a second list, sorted by
// seq, that is searched from the end a new key most likely belongs at.
//
//   - Level 0 is the open window: wheelSlots one-nanosecond slots starting at
//     win<<wheelShift, each holding the events of exactly that instant in two
//     lists — the band-0 FIFO and the sorted band-1 list, popped in that
//     order — with one occupancy bit per slot for the pair: the earliest wheel
//     event is the first of slot TrailingZeros64(occ0). A push compares with
//     the list's tail and appends, or walks back from the tail.
//   - Level 1 is the wheelBuckets-1 windows after the open one: per window one
//     unsorted LIFO list for both bands, newest first. When level 0 has
//     drained and the next occupied window is due, its list is relinked — not
//     copied — into the level-0 slots; walking newest to oldest, a node is
//     compared with its list's head and prepended (a band-0 node always, which
//     leaves the FIFO oldest first), or walks forward from the head.
//
// Either walk gives up after walkBound nodes and hands the event to the heap,
// so an instant whose band-1 events arrive in the worst order (tens of
// thousands of them, owners descending) costs a heap sift per event, as it
// would without the wheels, not a quadratic list insertion.
//
// What else goes to the heap: events below the open window (the sharded merge
// and Drain after a peek opened a later window), events beyond level 1's
// reach, and every event while fewer than deepQueue are pending — at that
// depth a heap sift is a handful of L1 hits and cheaper than the wheels'
// two-sided pop. A kernel that never gets that deep never allocates the
// wheels.
//
// The constants were measured on the four benchmark workloads (peak pending
// events: patterns 12, fuzz_chaos 217, apps 802, scale512 6 904) and on the
// scale512 traffic in particular: all but 0.4 % of its band-0 pushes land
// inside a 16 µs reach, 41 % of them inside the open 64 ns window, and a
// window that opens relinks 33 events on average; a band-1 push into the open
// window passes 4.0 nodes on average and a relinked band-1 node 0.4, the
// longest walk is 124 nodes (97 in a 4 096-rank cell), so none reaches
// walkBound and the heap is left with 0.3 % of the events. A single
// 256 x 64 ns wheel with a heap for the open bucket was also measured and
// bought little more than a third of this (EXPERIMENTS, "Event queue and
// credit wake-ups").
const (
	deepQueue    = 16  // pending events from which pushes use the wheels
	wheelShift   = 6   // log2 of the window width in ns
	wheelSlots   = 64  // 1 ns slots of the open window: one occupancy word
	wheelBuckets = 256 // windows within reach, the open one included
	walkBound    = 128 // nodes a sorted insert passes before the heap takes the event
)

// node is one wheel-resident event and the slab indices of its neighbours in
// whatever list holds it: both in a level-0 list, next alone in a level-1
// list or the free list. Index 0 is the nil link; slab[0] is never used.
type node struct {
	ev         event
	next, prev int32
}

// list is one of a level-0 slot's two lists, sorted by seq: slab indices of
// its first and last node. It is empty when head is 0, and tail is stale then. The
// last node's next is 0; the first node's prev is not kept (take leaves it
// pointing at the node it recycled), so a walk stops at head, not at 0.
type list struct{ head, tail int32 }

// wheels is the by-construction side of the queue, allocated by the first
// push that finds deepQueue events pending.
type wheels struct {
	slab []node
	free int32 // head of the free list, 0 when empty

	win  int64 // the open window is [win<<wheelShift, (win+1)<<wheelShift)
	occ0 uint64
	occ1 [wheelBuckets / 64]uint64 // bucket b's bit: window ≡ b (mod wheelBuckets) is occupied
	l0   [wheelSlots][2]list       // per slot the band-0 list, then the band-1 list
	l1   [wheelBuckets]int32       // list heads, newest first, 0 when empty
}

// link inserts node i into f after node p (0: at the head).
func (w *wheels) link(f *list, i, p int32) {
	next := f.head
	if p == 0 {
		f.head = i
	} else {
		next = w.slab[p].next
		w.slab[p].next = i
	}
	if next == 0 {
		f.tail = i
	} else {
		w.slab[next].prev = i
	}
	n := &w.slab[i]
	n.next, n.prev = next, p
}

// release recycles node i. The references are dropped so a recycled node pins
// nothing.
func (k *Kernel) release(i int32) {
	w := k.w
	n := &w.slab[i]
	n.ev.fn, n.ev.arg = nil, nil
	n.next = w.free
	w.free = i
	k.wn--
}

// wheelPush files the event e under the wheels and reports whether it could:
// false means e activates below the open window or beyond level 1's reach, or
// lies walkBound nodes or more from the tail of its slot's list, and belongs
// on the heap.
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
	if d != 0 {
		i := k.store(e)
		b := uint(e.at>>wheelShift) % wheelBuckets
		w.slab[i].next = w.l1[b]
		w.l1[b] = i
		w.occ1[b/64] |= 1 << (b % 64)
		return true
	}
	// Tail first: a band-0 seq is the largest minted so far and a band-1 key
	// nearly always the largest of its instant so far, so the place is the
	// tail itself or a few nodes before it.
	s := uint(e.at) % wheelSlots
	f := &w.l0[s][e.seq>>63]
	after := int32(0)
	if f.head != 0 {
		after = f.tail
		for walked := 0; e.seq < w.slab[after].ev.seq; after = w.slab[after].prev {
			if walked++; walked == walkBound {
				return false
			}
			if after == f.head { // whose prev is stale
				after = 0
				break
			}
		}
	}
	w.occ0 |= 1 << s
	w.link(f, k.store(e), after)
	return true
}

// store copies e into a recycled or new node and returns its slab index.
func (k *Kernel) store(e *event) int32 {
	w := k.w
	i := w.free
	if i != 0 {
		w.free = w.slab[i].next
	} else {
		i = int32(len(w.slab))
		w.slab = append(w.slab, node{})
	}
	w.slab[i].ev = *e
	k.wn++
	return i
}

// front makes level 0 hold the wheels' earliest event and returns its
// activation time. If level 0 has drained, that means opening the next
// occupied level-1 window — unless that window starts after bound, in which
// case it stays closed (so that pushes below it keep landing in the wheels)
// and front returns its start time and false: nothing here is due by bound.
// Opening a window may hand events to the heap, none earlier than the time
// returned. The wheels must not be empty.
func (k *Kernel) front(bound Time) (Time, bool) {
	w := k.w
	if w.occ0 == 0 {
		d := w.nextWindow()
		if start := (w.win + d) << wheelShift; start > bound {
			return start, false
		}
		k.open(d)
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
// into the (drained) level-0 slots. The list is newest first, so the walk is
// wheelPush's in the mirror: head first, where a band-0 node always belongs
// (it is older than everything relinked before it) and a band-1 node nearly
// always. One that is not placed within walkBound nodes goes to the heap; a
// slot's first node of either band is placed without a walk, so level 0 is
// never left empty and its earliest event is no later than any handed over.
func (k *Kernel) open(d int64) {
	w := k.w
	w.win += d
	b := uint(w.win) % wheelBuckets
	i := w.l1[b]
	w.l1[b] = 0
	w.occ1[b/64] &^= 1 << (b % 64)
	for i != 0 {
		n := &w.slab[i]
		next := n.next
		s := uint(n.ev.at) % wheelSlots
		f := &w.l0[s][n.ev.seq>>63]
		after, walked := int32(0), 0
		for p := f.head; p != 0 && w.slab[p].ev.seq < n.ev.seq && walked < walkBound; p = w.slab[p].next {
			after = p
			walked++
		}
		if walked < walkBound {
			w.occ0 |= 1 << s
			w.link(f, i, after)
		} else {
			k.heap = append(k.heap, n.ev)
			k.siftUp()
			k.release(i)
		}
		i = next
	}
}

// head returns the wheels' earliest event, which front has made the first of
// level 0's first occupied slot: the head of its band-0 list, or with none,
// of its band-1 list.
func (w *wheels) head() *event {
	sl := &w.l0[bits.TrailingZeros64(w.occ0)]
	i := sl[0].head
	if i == 0 {
		i = sl[1].head
	}
	return &w.slab[i].ev
}

// take removes that event into e and recycles its node.
func (k *Kernel) take(e *event) {
	w := k.w
	s := uint(bits.TrailingZeros64(w.occ0))
	sl := &w.l0[s]
	f := &sl[0]
	if f.head == 0 {
		f = &sl[1]
	}
	i := f.head
	n := &w.slab[i]
	*e = n.ev
	f.head = n.next
	if sl[0].head|sl[1].head == 0 {
		w.occ0 &^= 1 << s
	}
	k.release(i)
}

// popMerged is pop for a kernel with events in the wheels: it removes the
// earliest event by (at, seq) across both sides into e, unless that event
// activates after k.until, in which case it reports false and removes
// nothing.
func (k *Kernel) popMerged(e *event) bool {
	bound := k.until
	if len(k.heap) > 0 && k.heap[0].at < bound {
		bound = k.heap[0].at
	}
	at, ok := k.front(bound)
	var top *event
	if len(k.heap) > 0 {
		top = &k.heap[0] // read after front, which may have pushed
	}
	if ok && at <= k.until {
		if top == nil || k.w.head().before(top) {
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
