package main

// Host-speed reference. This class of host (a 2-vCPU VM beside busy
// tenants) runs the same code at a speed that wanders by 30-50 % over tens
// of seconds: process CPU time already excludes hypervisor steal, yet a
// fixed instruction sequence still takes 1.0-1.5x its best time, so medians
// of raw per-unit CPU time spread 12-35 % between identical runs. The
// benchmark therefore times a frozen reference kernel next to every unit
// and reports each unit's CPU time relative to it (see README.md, "Why the
// speed metric is normalised"). The kernel is two loops - event-heap sifts
// like the simulator's, and a dependent ALU chain - and shares no code with
// the repo's packages, so no change to them can move it. It allocates
// nothing after construction. (A goroutine-handoff loop was tried as a third
// part: it tracked the proc workloads no better than these two and put
// scheduler frames into the traced run's profile.)

// refNominalMs is the speed normalised timings are expressed at: the one
// at which a reference sample takes 30 ms, about what this class of host
// delivers under typical load.
const refNominalMs = 30

type refEvent struct {
	at, seq uint64
}

type refKernel struct {
	heap      []refEvent
	lcg, sink uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{lcg: 1, heap: make([]refEvent, 0, 4096)}
	for i := 0; i < cap(k.heap); i++ {
		k.push(refEvent{at: k.next() >> 40, seq: uint64(i)})
	}
	k.sample(1) // warm-up
	return k
}

func (k *refKernel) next() uint64 {
	k.lcg = k.lcg*6364136223846793005 + 1442695040888963407
	return k.lcg
}

func (k *refKernel) less(i, j int) bool {
	a, b := &k.heap[i], &k.heap[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (k *refKernel) push(e refEvent) {
	k.heap = append(k.heap, e)
	for i := len(k.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !k.less(i, p) {
			break
		}
		k.heap[i], k.heap[p] = k.heap[p], k.heap[i]
		i = p
	}
}

func (k *refKernel) pop() refEvent {
	top := k.heap[0]
	n := len(k.heap) - 1
	k.heap[0] = k.heap[n]
	k.heap = k.heap[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && k.less(l, m) {
			m = l
		}
		if r < n && k.less(r, m) {
			m = r
		}
		if m == i {
			return top
		}
		k.heap[i], k.heap[m] = k.heap[m], k.heap[i]
		i = m
	}
}

// Op counts of one sample, sized so each loop takes about 15 ms here.
const (
	refHeapOps = 100_000
	refSpinOps = 7_500_000
)

// sample runs the two loops reps times and returns the process CPU
// milliseconds one pass took.
func (k *refKernel) sample(reps int) float64 {
	c0 := cpuTime()
	for r := 0; r < reps; r++ {
		for i := 0; i < refHeapOps; i++ { // pop the earliest event, re-arm it later
			e := k.pop()
			e.at += k.next() >> 44
			e.seq += uint64(cap(k.heap))
			k.push(e)
		}
		x := k.sink | 1
		for i := 0; i < refSpinOps; i++ { // xorshift: a dependent chain, no memory
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		k.sink = x
	}
	return float64(cpuTime()-c0) / 1e6 / float64(reps)
}
