package core

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCounterIDsMonotonic(t *testing.T) {
	c := &peerCounters{}
	for i := int64(1); i <= 100; i++ {
		if got := c.nextAccessID(); got != i {
			t.Fatalf("access id %d, want %d", got, i)
		}
	}
	for i := int64(1); i <= 100; i++ {
		if got := c.nextExposureID(); got != i {
			t.Fatalf("exposure id %d, want %d", got, i)
		}
	}
}

func TestGrantSemantics(t *testing.T) {
	c := &peerCounters{}
	a1 := c.nextAccessID()
	a2 := c.nextAccessID()
	if c.granted(a1) || c.granted(a2) {
		t.Fatal("nothing granted yet")
	}
	c.recordGrant(1)
	if !c.granted(a1) {
		t.Fatal("access 1 should be granted")
	}
	if c.granted(a2) {
		t.Fatal("access 2 should not be granted yet")
	}
	// A_i <= g_r means this access AND all k subsequent ones are granted.
	c.recordGrant(5)
	if !c.granted(a2) || !c.granted(5) {
		t.Fatal("cumulative grant semantics violated")
	}
}

func TestGrantOutOfOrderDelivery(t *testing.T) {
	c := &peerCounters{}
	c.recordGrant(3)
	c.recordGrant(1) // stale update must not regress the counter
	if c.g != 3 {
		t.Fatalf("g=%d after stale update, want 3", c.g)
	}
}

func TestDonePersistence(t *testing.T) {
	// The §VII-B persistence property: a done packet arriving before the
	// matching exposure is activated still completes it later.
	c := &peerCounters{}
	c.recordDone(2)
	e1 := c.nextExposureID()
	e2 := c.nextExposureID()
	e3 := c.nextExposureID()
	if !c.exposureComplete(e1) || !c.exposureComplete(e2) {
		t.Fatal("pre-arrived dones must persist for late exposures")
	}
	if c.exposureComplete(e3) {
		t.Fatal("exposure 3 has no done yet")
	}
}

// Property: the O(1) matching algebra equals a naive queue model. We
// simulate an origin opening accesses and a target granting exposures in
// arbitrary interleavings; "granted" must equal position-based matching.
func TestMatchingEquivalenceProperty(t *testing.T) {
	f := func(ops []bool) bool {
		c := &peerCounters{}
		accesses := 0 // naive model: number of accesses opened
		grants := 0   // naive model: number of grants issued
		var ids []int64
		for _, isAccess := range ops {
			if isAccess {
				ids = append(ids, c.nextAccessID())
				accesses++
			} else {
				grants++
				c.recordGrant(int64(grants))
			}
			// Check every access so far: the i-th opened access (1-based)
			// is granted iff i <= grants.
			for i, id := range ids {
				want := i+1 <= grants
				if c.granted(id) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: exposure completion equals the naive per-origin done count.
func TestDoneMatchingProperty(t *testing.T) {
	f := func(ops []bool) bool {
		c := &peerCounters{}
		dones := 0
		var exposures []int64
		for _, isExposure := range ops {
			if isExposure {
				exposures = append(exposures, c.nextExposureID())
			} else {
				dones++
				c.recordDone(int64(dones))
			}
			for i, id := range exposures {
				if c.exposureComplete(id) != (i+1 <= dones) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackRoundtrip(t *testing.T) {
	cases := []struct {
		kind  channel
		win   int64
		src   int
		value int64
	}{
		{chGrant, 0, 0, 0},
		{chDone, 1023, 262143, 1<<32 - 1},
		{chLockReq, 7, 2047, 1},
		{chUnlock, 512, 100000, 123456789},
	}
	for _, c := range cases {
		k, w, s, v := unpackWord(packWord(c.kind, c.win, c.src, c.value))
		if k != c.kind || w != c.win || s != c.src || v != c.value {
			t.Fatalf("roundtrip %+v -> kind=%d win=%d src=%d val=%d", c, k, w, s, v)
		}
	}
}

// Property: pack/unpack roundtrips over the full encodable domain.
func TestPackWordProperty(t *testing.T) {
	f := func(kRaw, wRaw uint16, sRaw uint32, vRaw uint32) bool {
		kind := channel(kRaw) % chCount
		win := int64(wRaw % 1024)
		src := int(sRaw % (1 << 18))
		val := int64(vRaw)
		k, w, s, v := unpackWord(packWord(kind, win, src, val))
		return k == kind && w == win && s == src && v == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackWordBoundsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { packWord(chGrant, 1<<10, 0, 0) },
		func() { packWord(chGrant, 0, 1<<18, 0) },
		func() { packWord(chGrant, 0, 0, 1<<32) },
		func() { packWord(chGrant, -1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range packWord should panic")
				}
			}()
			fn()
		}()
	}
}

// peerCounters stays 32 bytes: a dense 512-rank world holds 512² of them, so
// one more field is ~8 KiB per rank (bench.TestScaleBytesPerRank measures
// the total). Any other size fails to compile.
var _ = [1]struct{}{}[unsafe.Sizeof(peerCounters{})-32]
