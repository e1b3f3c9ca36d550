package fabric

import "testing"

func TestRegCacheMissThenHit(t *testing.T) {
	c := &regCache{cap: 2}
	if c.touch(1) {
		t.Fatal("first touch should miss")
	}
	if !c.touch(1) {
		t.Fatal("second touch should hit")
	}
	if len(c.lru) != 1 || c.lru[0] != 1 {
		t.Fatalf("one region touched twice: lru=%v, want it once", c.lru)
	}
}

func TestRegCacheLRUEviction(t *testing.T) {
	c := &regCache{cap: 2}
	c.touch(1)
	c.touch(2)
	c.touch(1) // 1 becomes most recent
	c.touch(3) // evicts 2
	if !c.touch(1) {
		t.Fatal("1 should still be cached")
	}
	if c.touch(2) {
		t.Fatal("2 should have been evicted")
	}
	if len(c.lru) != 2 {
		t.Fatalf("cache holds %d entries, want 2", len(c.lru))
	}
}

func TestRegCacheDisabled(t *testing.T) {
	c := &regCache{cap: 0}
	for i := uint64(1); i < 10; i++ {
		if !c.touch(i) {
			t.Fatal("disabled cache should always hit")
		}
	}
}

func TestRegCacheUntrackedKey(t *testing.T) {
	c := &regCache{cap: 4}
	if !c.touch(0) {
		t.Fatal("key 0 (untracked) should always hit")
	}
	if len(c.lru) != 0 {
		t.Fatal("key 0 should not occupy a slot")
	}
}
