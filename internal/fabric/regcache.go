package fabric

// RegCache models an RDMA memory-registration (pinning) cache with LRU
// eviction. The paper's progress engine "unpins or puts back previously
// pinned memory in the memory registration cache" (Section VII-D, step 1);
// here the observable effect is a one-time pinning cost the first time a
// memory region is used for a transfer, and again after eviction.
type RegCache struct {
	cap   int
	index map[uint64]int // key -> position in lru
	lru   []uint64       // least-recently-used first
}

// NewRegCache creates a cache for at most capacity regions. capacity <= 0
// disables the model: Touch always hits.
func NewRegCache(capacity int) *RegCache {
	return &RegCache{cap: capacity, index: make(map[uint64]int)}
}

// Touch records a use of region key and reports whether it was already
// registered (true = hit, no pinning cost). Key 0 is "untracked" and always
// hits.
func (c *RegCache) Touch(key uint64) bool {
	if c.cap <= 0 || key == 0 {
		return true
	}
	if pos, ok := c.index[key]; ok {
		// Move to most-recently-used position, in place: this runs on the
		// NIC enqueue path for every transfer, so it must not allocate.
		copy(c.lru[pos:], c.lru[pos+1:])
		c.lru[len(c.lru)-1] = key
		c.reindex(pos)
		return true
	}
	if len(c.lru) >= c.cap {
		evicted := c.lru[0]
		delete(c.index, evicted)
		copy(c.lru, c.lru[1:])
		c.lru = c.lru[:len(c.lru)-1]
		c.reindex(0)
	}
	c.index[key] = len(c.lru)
	c.lru = append(c.lru, key)
	return false
}

// reindex rebuilds positions from pos onward after a slice mutation.
func (c *RegCache) reindex(pos int) {
	for i := pos; i < len(c.lru); i++ {
		c.index[c.lru[i]] = i
	}
}
