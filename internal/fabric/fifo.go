package fabric

// Fifo is a fixed-capacity single-producer/single-consumer ring of 64-bit
// packets, modeling the paper's "two-way shared-memory wait-free FIFO"
// between any two same-node RMA windows (Section VII-D). Each direction of a
// pair is one Fifo. Operations never block: Push reports failure when the
// ring is full and the producer retries from its progress engine.
type Fifo struct {
	buf  []uint64
	head int // next slot to pop
	tail int // next slot to push
	n    int // occupied slots
}

// NewFifo creates a ring holding up to capacity packets (minimum 1).
func NewFifo(capacity int) *Fifo {
	if capacity < 1 {
		capacity = 1
	}
	return &Fifo{buf: make([]uint64, capacity)}
}

// Push appends one packet; it reports false (and queues nothing) when full.
func (f *Fifo) Push(v uint64) bool {
	if f.n == len(f.buf) {
		return false
	}
	f.buf[f.tail] = v
	f.tail = (f.tail + 1) % len(f.buf)
	f.n++
	return true
}

// Pop removes and returns the oldest packet; ok is false when empty.
func (f *Fifo) Pop() (v uint64, ok bool) {
	if f.n == 0 {
		return 0, false
	}
	v = f.buf[f.head]
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return v, true
}
