package kvstore

import (
	"math"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// attempt records a slot value a client tried to write, whether or not the
// attempt was acknowledged: an errored write may still have landed, so the
// oracle must accept it in server memory.
type attempt struct {
	Key  int
	Slot uint64
}

// plannedOp is one pre-drawn request of the open-loop arrival plan. The
// whole plan is drawn from the client RNG before execution starts, so the
// request stream is a pure function of the seed — retry jitter drawn during
// execution cannot perturb it.
type plannedOp struct {
	arr     sim.Time
	key     int
	write   bool
	payload uint32
}

// client is one load-generating rank: its membership view, RNG, plan and
// logs. All state is rank-local; aggregation happens after the run.
type client struct {
	r    *mpi.Rank
	opt  Options
	wins []*core.Window
	id   int // client index, packed into version writer bits

	rng  *sim.RNG
	plan []plannedOp

	// view is the epoch-versioned membership view: suspects accumulate
	// from *RMAError blocked-peer sets and poisoned windows; version bumps
	// on every change so a retry re-resolves its target against the newest
	// view.
	viewVersion int
	suspect     []bool

	errBudget    int
	degradedMode bool

	log       []opRec
	attempted []attempt
}

// newClient builds a client for rank r (must be >= opt.Servers).
func newClient(r *mpi.Rank, opt Options, wins []*core.Window) *client {
	id := r.ID - opt.Servers
	c := &client{
		r: r, opt: opt, wins: wins, id: id,
		rng:       sim.NewRNG(opt.Seed<<16 + uint64(id)*2654435761 + 1),
		suspect:   make([]bool, opt.Servers),
		errBudget: opt.ErrBudget,
	}
	c.draw()
	return c
}

// draw materializes the arrival plan: Zipfian keys, read/write mix, bursty
// open-loop arrivals.
func (c *client) draw() {
	cdf := zipfCDF(c.opt.Keys, float64(zipfS)/100)
	t := c.r.Now()
	for i := 0; i < c.opt.OpsPerClient; i++ {
		gap := meanGap
		if (i/burstLen)%burstEvery == 0 {
			gap /= 8 // burst: 8x arrival rate
		}
		t += gap + sim.Time(c.rng.Int63n(int64(gap/2)+1))
		c.plan = append(c.plan, plannedOp{
			arr:     t,
			key:     sampleCDF(cdf, c.rng.Float64()),
			write:   c.rng.Intn(1000) >= c.opt.ReadPermille,
			payload: uint32(c.rng.Uint64()) & payloadMask,
		})
	}
}

// zipfCDF precomputes the cumulative popularity of keys 0..n-1 with skew s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// sampleCDF inverts a CDF at x by binary search.
func sampleCDF(cdf []float64, x float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// run services the plan in arrival order. Open loop: a request's deadline
// is fixed at arrival + opDeadline no matter how far behind the client is,
// so sustained trouble turns into shed load, not unbounded queueing.
func (c *client) run() {
	for i, op := range c.plan {
		if now := c.r.Now(); now < op.arr {
			c.r.Compute(op.arr - now)
		}
		rec := opRec{Idx: i, Key: op.key, Write: op.write, Arrival: op.arr,
			Holders: [2]int{-1, -1}}
		deadline := op.arr + opDeadline
		if c.r.Now() > deadline {
			rec.Outcome, rec.Done = Shed, c.r.Now()
			c.log = append(c.log, rec)
			continue
		}
		if op.write {
			c.serveWrite(op, deadline, &rec)
		} else {
			c.serveRead(op, deadline, &rec)
		}
		rec.Done = c.r.Now()
		c.log = append(c.log, rec)
	}
}

// maxAttempts is the retry bound under the current degradation level.
func (c *client) maxAttempts() int {
	if c.degradedMode {
		return 1 // budget exhausted: single attempt, no backoff
	}
	return maxRetries + 1
}

// backoff sleeps the exponential-backoff interval for the given attempt
// (0-based), capped and jittered from the client RNG. Returns false when
// the deadline would pass before the retry could start.
func (c *client) backoff(att int, deadline sim.Time) bool {
	if c.degradedMode {
		return false
	}
	d := backoffBase << uint(att)
	if d > backoffCap {
		d = backoffCap
	}
	d += sim.Time(c.rng.Int63n(int64(backoffBase) + 1))
	if c.r.Now()+d > deadline {
		return false
	}
	c.r.Compute(d)
	return true
}

// fail notes one failed attempt: budget, suspicion, view version.
func (c *client) fail(target int, err error) {
	c.errBudget--
	if c.errBudget <= 0 {
		c.degradedMode = true
	}
	marked := false
	if e, ok := err.(*core.RMAError); ok {
		for _, p := range e.Peers {
			if p >= 0 && p < c.opt.Servers && !c.suspect[p] {
				c.suspect[p] = true
				marked = true
			}
		}
	}
	if !marked && !c.suspect[target] {
		// Unattributable failure: conservatively suspect the rank we were
		// talking to.
		c.suspect[target] = true
	}
	c.viewVersion++
}

// serveWrite executes one write with failover: primary read-modify-write,
// replica propagation, degraded single-copy write when the primary is out.
func (c *client) serveWrite(op plannedOp, deadline sim.Time, rec *opRec) {
	prim, rep := c.opt.home(op.key), c.opt.replica(op.key)
	for att := 0; att < c.maxAttempts(); att++ {
		rec.Retries = att
		// Re-resolve against the current view on every attempt.
		switch {
		case !c.suspect[prim]:
			slot, err := c.rmw(prim, primOff(op.key), op.key, op.payload)
			if err != nil {
				c.fail(prim, err)
				break
			}
			rec.Slot, rec.Holders[0] = slot, prim
			rec.Outcome = AckDegraded
			// Propagate to the replica; a replica failure degrades the ack
			// but never un-acks the durable primary write.
			if !c.suspect[rep] {
				if err := c.propagate(rep, replOff(c.opt.Keys, op.key), op.key, slot); err != nil {
					c.fail(rep, err)
				} else {
					rec.Holders[1] = rep
					rec.Outcome = AckFull
				}
			}
			return
		case !c.suspect[rep]:
			// Degraded path: the replica slot doubles as the write target,
			// versioned from its own cell so monotonicity is preserved.
			slot, err := c.rmw(rep, replOff(c.opt.Keys, op.key), op.key, op.payload)
			if err != nil {
				c.fail(rep, err)
				break
			}
			rec.Slot, rec.Holders[0] = slot, rep
			rec.Outcome, rec.Failover = AckDegraded, true
			return
		default:
			rec.Outcome = Shed // no live copy in view: shed immediately
			return
		}
		if !c.backoff(att, deadline) {
			break
		}
	}
	rec.Outcome = Failed
}

// serveRead executes one read with failover to the (possibly stale)
// replica.
func (c *client) serveRead(op plannedOp, deadline sim.Time, rec *opRec) {
	prim, rep := c.opt.home(op.key), c.opt.replica(op.key)
	for att := 0; att < c.maxAttempts(); att++ {
		rec.Retries = att
		switch {
		case !c.suspect[prim]:
			slot, err := c.get(prim, primOff(op.key))
			if err != nil {
				c.fail(prim, err)
				break
			}
			rec.Slot, rec.Holders[0] = slot, prim
			rec.Outcome = AckFull
			return
		case !c.suspect[rep]:
			slot, err := c.get(rep, replOff(c.opt.Keys, op.key))
			if err != nil {
				c.fail(rep, err)
				break
			}
			rec.Slot, rec.Holders[0] = slot, rep
			rec.Outcome, rec.Failover = AckDegraded, true
			return
		default:
			rec.Outcome = Shed
			return
		}
		if !c.backoff(att, deadline) {
			break
		}
	}
	rec.Outcome = Failed
}

// --- Protocol steps ----------------------------------------------------- //
//
// Every step runs under guard: blocking synchronizations on an aborted
// epoch panic with the *RMAError (errors-are-fatal analog), and the client
// converts exactly that class back into an error to drive failover. Any
// other panic is a bug and propagates.

// guard runs f, converting an *RMAError panic into a returned error.
func guard(f func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e, ok := r.(*core.RMAError); ok {
			err = e
			return
		}
		panic(r)
	}()
	f()
	return nil
}

// rmw is the versioned write: under an exclusive lock on srv, fetch the
// slot, advance its version, and max-accumulate the new packed value. The
// attempted value is recorded before the accumulate is issued — an errored
// attempt may still land.
func (c *client) rmw(srv int, off int64, key int, payload uint32) (uint64, error) {
	w := c.wins[srv]
	if err := w.Err(); err != nil {
		return 0, err
	}
	var slot uint64
	err := guard(func() {
		w.Lock(srv, true)
		cur := c.fetch(w, srv, off)
		slot = pack(nextVer(cur, c.id), payload)
		c.attempted = append(c.attempted, attempt{Key: key, Slot: slot})
		w.Accumulate(srv, off, core.OpMax, core.TInt64, le8(slot), slotBytes)
		w.Unlock(srv)
	})
	if err != nil {
		return 0, err
	}
	return slot, nil
}

// propagate pushes an already-versioned slot value to the replica with an
// atomic max under a shared lock: replicas converge to the newest version
// under any interleaving, so no read-check is needed.
func (c *client) propagate(srv int, off int64, key int, slot uint64) error {
	w := c.wins[srv]
	if err := w.Err(); err != nil {
		return err
	}
	c.attempted = append(c.attempted, attempt{Key: key, Slot: slot})
	return guard(func() {
		w.Lock(srv, false)
		w.Accumulate(srv, off, core.OpMax, core.TInt64, le8(slot), slotBytes)
		w.Unlock(srv)
	})
}

// get reads one slot under a shared lock.
func (c *client) get(srv int, off int64) (uint64, error) {
	w := c.wins[srv]
	if err := w.Err(); err != nil {
		return 0, err
	}
	buf := make([]byte, slotBytes)
	err := guard(func() {
		w.Lock(srv, false)
		w.Get(srv, off, buf, slotBytes)
		w.Unlock(srv)
	})
	if err != nil {
		return 0, err
	}
	return leU64(buf), nil
}

// fetch atomically reads the slot at off on srv inside the current passive
// epoch (GetAccumulate with OpNoOp plus a blocking flush).
func (c *client) fetch(w *core.Window, srv int, off int64) uint64 {
	buf := make([]byte, slotBytes)
	req := w.RGetAccumulate(srv, off, core.OpNoOp, core.TInt64, nil, buf, slotBytes)
	w.Flush(srv)
	if err := req.Err(); err != nil {
		if e, ok := err.(*core.RMAError); ok {
			panic(e) // unwound by guard
		}
		panic(err)
	}
	return leU64(buf)
}
