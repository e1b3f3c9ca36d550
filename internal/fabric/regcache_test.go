package fabric

import "testing"

func TestRegCacheMissThenHit(t *testing.T) {
	c := NewRegCache(2)
	if c.Touch(1) {
		t.Fatal("first touch should miss")
	}
	if !c.Touch(1) {
		t.Fatal("second touch should hit")
	}
	if len(c.lru) != 1 || c.index[1] != 0 {
		t.Fatalf("one region touched twice: lru=%v index=%v, want it once", c.lru, c.index)
	}
}

func TestRegCacheLRUEviction(t *testing.T) {
	c := NewRegCache(2)
	c.Touch(1)
	c.Touch(2)
	c.Touch(1) // 1 becomes most recent
	c.Touch(3) // evicts 2
	if !c.Touch(1) {
		t.Fatal("1 should still be cached")
	}
	if c.Touch(2) {
		t.Fatal("2 should have been evicted")
	}
	if len(c.lru) != 2 {
		t.Fatalf("cache holds %d entries, want 2", len(c.lru))
	}
}

func TestRegCacheDisabled(t *testing.T) {
	c := NewRegCache(0)
	for i := uint64(1); i < 10; i++ {
		if !c.Touch(i) {
			t.Fatal("disabled cache should always hit")
		}
	}
}

func TestRegCacheUntrackedKey(t *testing.T) {
	c := NewRegCache(4)
	if !c.Touch(0) {
		t.Fatal("key 0 (untracked) should always hit")
	}
	if len(c.lru) != 0 {
		t.Fatal("key 0 should not occupy a slot")
	}
}
