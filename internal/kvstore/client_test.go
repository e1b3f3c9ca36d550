package kvstore

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// viewClient is a client with a membership view and an error budget and
// nothing else: fail and maxAttempts read no rank.
func viewClient(servers, budget int) *client {
	return &client{opt: Options{Servers: servers}, suspect: make([]bool, servers), errBudget: budget}
}

// Each failure spends one unit of budget and bumps the view version; the
// failure that spends the last unit degrades the client to single attempts.
func TestKVFailSpendsBudgetThenDegrades(t *testing.T) {
	c := viewClient(4, 3)
	if got := c.maxAttempts(); got != maxRetries+1 {
		t.Fatalf("healthy client: %d attempts, want %d", got, maxRetries+1)
	}
	for i := 1; i <= 4; i++ {
		c.fail(0, errors.New("boom"))
		if c.errBudget != 3-i || c.viewVersion != i {
			t.Fatalf("after %d failures: budget %d, view %d; want %d, %d", i, c.errBudget, c.viewVersion, 3-i, i)
		}
		if want := i >= 3; c.degradedMode != want {
			t.Fatalf("after %d failures: degraded %v, want %v", i, c.degradedMode, want)
		}
	}
	if got := c.maxAttempts(); got != 1 {
		t.Fatalf("degraded client: %d attempts, want 1", got)
	}
}

// An RMAError's blocked peers become suspects — the in-range ones only — and
// the target is then left alone; a failure that names no new in-range peer
// suspects the target.
func TestKVFailSuspects(t *testing.T) {
	for _, c := range []struct {
		name   string
		err    error
		target int
		want   []int // suspected servers afterwards
	}{
		{"blocked peers", &core.RMAError{Peers: []int{-1, 1, 3, 7}}, 2, []int{1, 3}},
		{"out-of-range peers only", &core.RMAError{Peers: []int{4, 9}}, 2, []int{2}},
		{"no peers", &core.RMAError{Peer: -1}, 0, []int{0}},
		{"not an RMAError", errors.New("boom"), 3, []int{3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl := viewClient(4, 10)
			cl.fail(c.target, c.err)
			var got []int
			for s, bad := range cl.suspect {
				if bad {
					got = append(got, s)
				}
			}
			if !slices.Equal(got, c.want) {
				t.Fatalf("suspects %v, want %v", got, c.want)
			}
		})
	}
	// A peer already suspected is not news: the target is suspected instead.
	cl := viewClient(4, 10)
	cl.suspect[1] = true
	cl.fail(2, &core.RMAError{Peers: []int{1}})
	if !cl.suspect[2] {
		t.Fatal("a failure naming only known suspects did not suspect its target")
	}
}

// backoff is base<<att capped at backoffCap plus up to backoffBase of
// jitter, and refuses — no retry — when degraded or when the sleep would end
// past the deadline.
func TestKVBackoff(t *testing.T) {
	c := &client{rng: sim.NewRNG(1)}
	const now = sim.Time(5 * sim.Millisecond)
	far := sim.Time(math.MaxInt64 / 2)
	jitters := map[sim.Time]bool{}
	for _, att := range []int{0, 0, 0, 0, 1, 2, 3, 4, 5, 10} {
		d, ok := c.backoff(att, now, far)
		base := min(backoffBase<<uint(att), backoffCap)
		if !ok || d < base || d > base+backoffBase {
			t.Errorf("attempt %d: sleeps %v (ok %v), want [%v, %v]", att, d, ok, base, base+backoffBase)
		}
		jitters[d-base] = true
	}
	if len(jitters) < 2 {
		t.Errorf("backoff is not jittered: offsets %v", jitters)
	}
	if d, ok := c.backoff(0, now, now+backoffBase-1); ok {
		t.Errorf("past the deadline: sleeps %v, ok %v; want a refusal", d, ok)
	}
	if d, ok := c.backoff(0, now, now+backoffBase+backoffBase); !ok {
		t.Errorf("a sleep ending at the deadline at the latest: sleeps %v, refused", d)
	}
	c.degradedMode = true
	if d, ok := c.backoff(0, now, far); ok || d != 0 {
		t.Errorf("degraded: sleeps %v, ok %v; want a refusal", d, ok)
	}
}

// zipfCDF ends at exactly 1 and starts at the hottest key's share; sampleCDF
// maps 0 to the hottest key, 1 (and past it) to the coldest, and a draw equal
// to a key's cumulative share to that key.
func TestKVCDFEnds(t *testing.T) {
	cdf := zipfCDF(8, 0.99)
	if len(cdf) != 8 || cdf[7] != 1 {
		t.Fatalf("cdf %v: want 8 entries ending at 1", cdf)
	}
	var h float64
	for i := 1; i <= 8; i++ {
		h += 1 / math.Pow(float64(i), 0.99)
	}
	if math.Abs(cdf[0]-1/h) > 1e-15 || !slices.IsSorted(cdf) {
		t.Fatalf("cdf %v: want first entry %v and ascending", cdf, 1/h)
	}
	for _, c := range []struct {
		x    float64
		want int
	}{{0, 0}, {cdf[0], 0}, {math.Nextafter(cdf[0], 1), 1}, {cdf[6], 6}, {1, 7}, {1.5, 7}} {
		if got := sampleCDF(cdf, c.x); got != c.want {
			t.Errorf("sampleCDF(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if got := sampleCDF(zipfCDF(1, 0.99), 0.7); got != 0 {
		t.Errorf("one key: sampled %d", got)
	}
	uniform := zipfCDF(4, 0)
	if !slices.Equal(uniform, []float64{0.25, 0.5, 0.75, 1}) {
		t.Errorf("zero skew: cdf %v, want uniform", uniform)
	}
}
