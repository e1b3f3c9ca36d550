package fabric

// regCache models an RDMA memory-registration (pinning) cache with LRU
// eviction. The paper's progress engine "unpins or puts back previously
// pinned memory in the memory registration cache" (Section VII-D, step 1);
// here the observable effect is a one-time pinning cost the first time a
// memory region is used for a transfer, and again after eviction. Each NIC
// holds one by value.
type regCache struct {
	cap int
	lru []uint64 // least-recently-used first
}

// touch records a use of region key and reports whether it was already
// registered (true = hit, no pinning cost). Key 0 is "untracked" and always
// hits, and so does every key when cap <= 0 disables the model. A hit is
// found by a scan of at most cap keys (64 by default) and moved to the
// most-recently-used end in place: this runs on the NIC enqueue path for
// every transfer, so it must not allocate.
func (c *regCache) touch(key uint64) bool {
	if c.cap <= 0 || key == 0 {
		return true
	}
	for pos := len(c.lru) - 1; pos >= 0; pos-- {
		if c.lru[pos] == key {
			copy(c.lru[pos:], c.lru[pos+1:])
			c.lru[len(c.lru)-1] = key
			return true
		}
	}
	if len(c.lru) == c.cap {
		copy(c.lru, c.lru[1:])
		c.lru = c.lru[:len(c.lru)-1]
	}
	c.lru = append(c.lru, key)
	return false
}
