package mpi

import "fmt"

// Additional collectives built on the two-sided layer. Like Bcast and
// AllreduceInt64, they use reserved negative tags and assume every rank of
// the job participates.

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

// Scatter distributes contiguous per-rank blocks from root; every rank
// returns its own block. Only root's data argument is consulted.
func (r *Rank) Scatter(root int, data []byte, size int64) []byte {
	n := r.Size()
	tag := collTagBase - 4
	if r.ID == root {
		if data != nil && int64(len(data)) < int64(n)*size {
			panic(fmt.Sprintf("mpi: Scatter root data too short: %d < %d", len(data), int64(n)*size))
		}
		for p := 0; p < n; p++ {
			if p == root {
				continue
			}
			var blk []byte
			if data != nil {
				blk = data[int64(p)*size : int64(p+1)*size]
			}
			r.SendMsg(p, tag, blk, size)
		}
		if data == nil {
			return nil
		}
		return data[int64(root)*size : int64(root+1)*size]
	}
	return r.RecvMsg(root, tag)
}

// Allgather is Gather-to-root followed by a broadcast of the concatenated
// result; every rank returns the full buffer.
func (r *Rank) Allgather(data []byte, size int64) []byte {
	all := r.Gather(0, data, size)
	return r.Bcast(0, all, int64(r.Size())*size)
}

// Waitany blocks until at least one of the given requests completes and
// returns its index. It panics on an empty or all-nil request list.
func (r *Rank) Waitany(reqs ...*Request) int {
	any := false
	for _, q := range reqs {
		if q != nil {
			any = true
		}
	}
	if !any {
		panic("mpi: Waitany with no requests")
	}
	idx := -1
	r.WaitUntil("waitany", func() bool {
		for i, q := range reqs {
			if q != nil && q.done {
				idx = i
				return true
			}
		}
		return false
	})
	return idx
}

// Testall drives progress once and reports whether every request has
// completed.
func (r *Rank) Testall(reqs ...*Request) bool {
	r.Progress()
	for _, q := range reqs {
		if q != nil && !q.done {
			return false
		}
	}
	return true
}
