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

// Bcast broadcasts data (of the given size) from root using a binomial tree
// and returns each rank's copy (root gets its own data back).
func (r *Rank) Bcast(root int, data []byte, size int64) []byte {
	n := r.Size()
	if n == 1 {
		return data
	}
	vrank := (r.ID - root + n) % n
	tag := collTagBase - 1
	// Receive from parent (non-root only).
	if vrank != 0 {
		mask := 1
		for mask <= vrank {
			mask <<= 1
		}
		mask >>= 1
		parent := ((vrank - mask) + root) % n
		data = r.RecvMsg(parent, tag)
	}
	// Forward to children.
	for mask := nextPow2(vrank); vrank+mask < n; mask <<= 1 {
		child := (vrank + mask + root) % n
		r.SendMsg(child, tag, data, size)
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
// the reduced value. Implemented as reduce-to-0 then broadcast.
func (r *Rank) AllreduceInt64(op ReduceOp, val int64) int64 {
	n := r.Size()
	if n == 1 {
		return val
	}
	tag := collTagBase - 2
	// Binomial reduce toward rank 0.
	for mask := 1; mask < n; mask <<= 1 {
		if r.ID&mask != 0 {
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, uint64(val))
			r.SendMsg(r.ID&^mask, tag, buf, 8)
			break
		}
		peer := r.ID | mask
		if peer < n {
			buf := r.RecvMsg(peer, tag)
			val = op.apply(val, int64(binary.LittleEndian.Uint64(buf)))
		}
	}
	// Broadcast the result.
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(val))
	buf = r.Bcast(0, buf, 8)
	return int64(binary.LittleEndian.Uint64(buf))
}

// Gather collects each rank's data block at root; root receives the
// blocks concatenated in rank order (non-roots return nil). size is the
// per-rank block size.
func (r *Rank) Gather(root int, data []byte, size int64) []byte {
	n := r.Size()
	tag := collTagBase - 3
	if r.ID != root {
		r.SendMsg(root, tag, data, size)
		return nil
	}
	out := make([]byte, int64(n)*size)
	for p := 0; p < n; p++ {
		var blk []byte
		if p == root {
			blk = data
		} else {
			blk = r.RecvMsg(p, tag)
		}
		if blk != nil {
			copy(out[int64(p)*size:], blk)
		}
	}
	return out
}
