package sim

// Pool recycles the objects of one kind for one kernel context (a serial
// world, or one rank of a sharded one), so it takes no lock. Free objects
// chain through the link field link returns, which a Queue of them uses
// too (an object is never queued and free at once): neither a return nor
// a queue grows a slice. A dry pool allocates a chunk of as many objects
// as it has handed out (1, 1, 2, 4, … up to 64), one allocation a chunk.
type Pool[T any] struct {
	link func(*T) **T
	free *T
	made int
}

// NewPool returns an empty pool whose free objects chain through link.
func NewPool[T any](link func(*T) **T) Pool[T] { return Pool[T]{link: link} }

// Get returns a zero object.
func (p *Pool[T]) Get() *T {
	if p.free == nil {
		c := min(max(p.made, 1), 64)
		chunk := make([]T, c)
		for i := c - 1; i > 0; i-- {
			*p.link(&chunk[i]), p.free = p.free, &chunk[i]
		}
		p.made += c
		return &chunk[0]
	}
	x := p.free
	l := p.link(x)
	p.free, *l = *l, nil
	return x
}

// Put zeroes x and returns it to the pool.
func (p *Pool[T]) Put(x *T) {
	var zero T
	*x = zero
	*p.link(x), p.free = p.free, x
}

// Queue is a FIFO of pooled objects, chained through their Pool's link.
type Queue[T any] struct {
	link       func(*T) **T
	head, tail *T
	n          int
}

// NewQueue returns an empty queue chained through link.
func NewQueue[T any](link func(*T) **T) Queue[T] { return Queue[T]{link: link} }

// Len is the number of queued objects; Head the oldest, or nil; Next(x)
// the one queued after x, or nil.
func (q *Queue[T]) Len() int     { return q.n }
func (q *Queue[T]) Head() *T     { return q.head }
func (q *Queue[T]) Next(x *T) *T { return *q.link(x) }

// Push queues x last.
func (q *Queue[T]) Push(x *T) {
	if q.tail == nil {
		q.head = x
	} else {
		*q.link(q.tail) = x
	}
	q.tail = x
	q.n++
}

// Remove unqueues x, whose predecessor is prev (nil when x is the head).
func (q *Queue[T]) Remove(prev, x *T) {
	l := q.link(x)
	if prev == nil {
		q.head = *l
	} else {
		*q.link(prev) = *l
	}
	if q.tail == x {
		q.tail = prev
	}
	*l = nil
	q.n--
}
