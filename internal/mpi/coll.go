package mpi

import "encoding/binary"

// Collectives are implemented on top of the two-sided layer with binomial
// trees. They reserve the tag range below collTagBase; user code must use
// non-negative tags.
const collTagBase = -1 << 20

// ReduceOp is a combining operator for Allreduce.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) apply(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic("mpi: unknown reduce op")
}

// A collective is a fixed sequence of SendMsg/RecvMsg sub-calls, each
// resumable, so a collective resumes on a task rank like every other call:
// a sub-call that returns pending saves the collective's progress in the rank
// (collState, written only on that path) and the collective returns pending;
// its repeat skips the sub-calls already made and repeats the pending one.

// collState is the progress a pending collective had made: the sub-calls it
// had completed, the value it had reduced so far and the data it carries
// (Bcast's payload; Gather's output at the root).
type collState struct {
	done int
	val  int64
	data []byte
}

// coll is one make of a collective: the progress it resumes from and the
// index of its next sub-call.
type coll struct {
	collState
	r    *Rank
	next int
}

// beginColl starts (or resumes) a collective on r.
func (r *Rank) beginColl() coll {
	c := coll{r: r}
	if r.coll != nil {
		c.collState = *r.coll
		*r.coll = collState{}
	}
	return c
}

// skip reports whether the next sub-call was completed by an earlier make of
// the pending collective, and moves past it.
func (c *coll) skip() bool {
	c.next++
	return c.next <= c.done
}

// pending reports whether the sub-call just made is pending and, if so,
// saves the collective's progress for its repeat.
func (c *coll) pending() bool {
	if !c.r.Pending() {
		return false
	}
	c.done = c.next - 1
	if c.r.coll == nil {
		c.r.coll = new(collState)
	}
	*c.r.coll = c.collState
	return true
}

// Bcast broadcasts data (of the given size) from root using a binomial tree
// and returns each rank's copy (root gets its own data back; nil while the
// call is pending).
func (r *Rank) Bcast(root int, data []byte, size int64) []byte {
	if r.Size() == 1 {
		return data
	}
	c := r.beginColl()
	return c.bcast(root, data, size)
}

// bcast is Bcast's sub-calls: receive from the parent (non-root only), then
// forward to every child.
func (c *coll) bcast(root int, data []byte, size int64) []byte {
	r := c.r
	n := r.Size()
	vrank := (r.ID - root + n) % n
	tag := collTagBase - 1
	if vrank != 0 {
		if c.skip() {
			data = c.data
		} else {
			mask := 1
			for mask <= vrank {
				mask <<= 1
			}
			mask >>= 1
			parent := ((vrank - mask) + root) % n
			if data = r.RecvMsg(parent, tag); c.pending() {
				return nil
			}
		}
	}
	c.data = data
	for mask := nextPow2(vrank); vrank+mask < n; mask <<= 1 {
		if c.skip() {
			continue
		}
		child := (vrank + mask + root) % n
		if r.SendMsg(child, tag, data, size); c.pending() {
			return nil
		}
	}
	return data
}

// nextPow2 returns the smallest power of two strictly greater than v for
// v > 0, and 1 for v == 0.
func nextPow2(v int) int {
	m := 1
	for m <= v {
		m <<= 1
	}
	if v == 0 {
		return 1
	}
	return m
}

// AllreduceInt64 combines val across all ranks with op; every rank returns
// the reduced value (0 while the call is pending). Implemented as
// reduce-to-0 then broadcast.
func (r *Rank) AllreduceInt64(op ReduceOp, val int64) int64 {
	n := r.Size()
	if n == 1 {
		return val
	}
	c := r.beginColl()
	if c.done > 0 {
		val = c.val
	}
	c.val = val
	tag := collTagBase - 2
	// Binomial reduce toward rank 0.
	for mask := 1; mask < n; mask <<= 1 {
		if r.ID&mask != 0 {
			if !c.skip() {
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, uint64(val))
				if r.SendMsg(r.ID&^mask, tag, buf, 8); c.pending() {
					return 0
				}
			}
			break
		}
		peer := r.ID | mask
		if peer < n && !c.skip() {
			buf := r.RecvMsg(peer, tag)
			if c.pending() {
				return 0
			}
			val = op.apply(val, int64(binary.LittleEndian.Uint64(buf)))
			c.val = val
		}
	}
	// Broadcast the result.
	var buf []byte
	if r.ID == 0 {
		buf = make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(val))
	}
	if buf = c.bcast(0, buf, 8); buf == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(buf))
}

// Gather collects each rank's data block at root; root receives the
// blocks concatenated in rank order (non-roots return nil, and so does a
// pending call). size is the per-rank block size.
func (r *Rank) Gather(root int, data []byte, size int64) []byte {
	n := r.Size()
	tag := collTagBase - 3
	if r.ID != root {
		r.SendMsg(root, tag, data, size)
		return nil
	}
	c := r.beginColl()
	out := c.data
	if out == nil {
		out = make([]byte, int64(n)*size)
	}
	c.data = out
	for p := 0; p < n; p++ {
		blk := data
		if p != root {
			if c.skip() {
				continue
			}
			if blk = r.RecvMsg(p, tag); c.pending() {
				return nil
			}
		}
		if blk != nil {
			copy(out[int64(p)*size:], blk)
		}
	}
	return out
}
