package kvstore

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/prog"
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

// client is one load-generating rank, run as a prog.Program whose Generator
// it is: its membership view, RNG, plan and logs, and the request in
// service. All state is rank-local; aggregation happens after the run.
type client struct {
	r    *mpi.Rank
	opt  Options
	wins []*core.Window // the rank's windows, by server (prog.Run.Wins)
	id   int            // client index, packed into version writer bits

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

	// The request in service: its plan index and record, where it stands
	// (the block Next handed out last), its attempt, the server that attempt
	// targets and, for a write, the version it accumulates.
	i    int
	rec  opRec
	st   step
	att  int
	srv  int
	slot uint64

	// The blocks Next hands out, built once per server and patched in place:
	// their operands and results live in one buffer per client.
	blk   []serverBlocks
	sleep [2]prog.Call // Compute, Gen
}

// serverBlocks are one server's protocol steps, each ending in the Gen
// record that asks for the step after it. A window's blocks are never
// handed out again once a call on it failed (its window is poisoned, or its
// server suspected), so an aborted call still in flight cannot reach a
// buffer in use.
type serverBlocks struct {
	fetch [4]prog.Call // write: exclusive Lock, NoOp GetAcc of the slot, Flush
	write [3]prog.Call // write: max-Acc of the new version, Unlock
	prop  [4]prog.Call // replica propagation: shared Lock, max-Acc, Unlock
	read  [4]prog.Call // read: shared Lock, Get, Unlock
}

// step is where the request in service stands: what the next Next does
// with the outcome of the block handed out last.
type step uint8

const (
	stArrive     step = iota // start the next request: wait for its arrival
	stServe                  // arrived: shed it, or attempt it
	stAttempt                // (re)attempt it on the copy the view offers
	stFetched                // a write's slot is fetched: accumulate the next version
	stWritten                // the write's new version is accumulated
	stPropagated             // the replica propagation ran
	stRead                   // the read ran
)

// newClient builds a client for rank r (must be >= opt.Servers) over the
// rank's windows, which exist once its program's prologue has run.
func newClient(r *mpi.Rank, opt Options, wins []*core.Window) *client {
	id := r.ID - opt.Servers
	c := &client{
		r: r, opt: opt, wins: wins, id: id,
		rng:       sim.NewRNG(opt.Seed<<16 + uint64(id)*2654435761 + 1),
		suspect:   make([]bool, opt.Servers),
		errBudget: opt.ErrBudget,
		log:       make([]opRec, 0, opt.OpsPerClient),
		blk:       make([]serverBlocks, opt.Servers),
		sleep:     [2]prog.Call{{Kind: prog.Compute}, {Kind: prog.Gen}},
	}
	const op, dt = uint8(core.OpMax), uint8(core.TInt64)
	buf := make([]byte, 3*slotBytes*opt.Servers)
	for s := range c.blk {
		win, peer := int32(s), int32(s)
		b := buf[3*slotBytes*s : 3*slotBytes*(s+1)]
		fetch := b[:2*slotBytes]   // a zero operand, then the fetched slot
		operand := b[2*slotBytes:] // the version an accumulate writes
		result := b[slotBytes : 2*slotBytes]
		lock := prog.Call{Kind: prog.Lock, Win: win, Peer: peer}
		unlock := prog.Call{Kind: prog.Unlock, Win: win, Peer: peer}
		acc := prog.Call{Kind: prog.Acc, Op: op, DT: dt, Win: win, Peer: peer, Size: slotBytes, Buf: operand}
		gen := prog.Call{Kind: prog.Gen}
		excl := lock
		excl.Flag = true
		c.blk[s] = serverBlocks{
			fetch: [4]prog.Call{excl,
				{Kind: prog.GetAcc, Op: uint8(core.OpNoOp), DT: dt, Win: win, Peer: peer, Size: slotBytes, Buf: fetch},
				{Kind: prog.Flush, Win: win, Peer: peer}, gen},
			write: [3]prog.Call{acc, unlock, gen},
			prop:  [4]prog.Call{lock, acc, unlock, gen},
			read:  [4]prog.Call{lock, {Kind: prog.Get, Win: win, Peer: peer, Size: slotBytes, Buf: result}, unlock, gen},
		}
	}
	return c
}

// draw materializes the arrival plan: Zipfian keys, read/write mix, bursty
// open-loop arrivals.
func (c *client) draw() {
	cdf := zipfCDF(c.opt.Keys, float64(zipfS)/100)
	t := c.r.Now()
	c.plan = make([]plannedOp, 0, c.opt.OpsPerClient)
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

// Next services the plan in arrival order, one protocol step per block: it
// reads the outcome of the block it handed out last — err is the error that
// ended it early — and hands out the next, nil once the plan is done. Open
// loop: a request's deadline is fixed at arrival + opDeadline no matter how
// far behind the client is, so sustained trouble turns into shed load, not
// unbounded queueing. A write is a versioned read-modify-write of its
// primary (lock exclusively, fetch the slot, accumulate the next version,
// unlock) followed by a max-accumulate to the replica, or — primary out of
// view — of the replica alone; a read is a Get under a shared lock. A failed
// attempt suspects the server, backs off and re-resolves against the view.
func (c *client) Next(err error) []prog.Call {
	for {
		switch c.st {
		case stArrive:
			if c.plan == nil {
				c.draw() // after the prologue: the plan starts at window creation
			}
			if c.i == len(c.plan) {
				return nil
			}
			op := &c.plan[c.i]
			c.rec = opRec{Idx: c.i, Key: op.key, Write: op.write, Arrival: op.arr, Holders: [2]int{-1, -1}}
			c.st = stServe
			if now := c.r.Now(); now < op.arr {
				return c.sleepFor(op.arr - now)
			}
		case stServe:
			if c.r.Now() > c.deadline() {
				c.rec.Outcome = Shed
				c.finish()
				continue
			}
			c.att, c.st = 0, stAttempt
		case stAttempt:
			if blk := c.attempt(); blk != nil {
				return blk
			}
		case stFetched:
			if err != nil {
				if blk := c.failed(err); blk != nil {
					return blk
				}
				continue
			}
			op, b := &c.plan[c.i], &c.blk[c.srv]
			c.slot = pack(nextVer(leU64(b.fetch[1].Result()), c.id), op.payload)
			// Recorded before the accumulate is issued: an errored attempt
			// may still land.
			c.attempted = append(c.attempted, attempt{Key: op.key, Slot: c.slot})
			binary.LittleEndian.PutUint64(b.write[0].Buf, c.slot)
			b.write[0].Off = b.fetch[1].Off
			c.st = stWritten
			return b.write[:]
		case stWritten:
			if err != nil {
				if blk := c.failed(err); blk != nil {
					return blk
				}
				continue
			}
			if blk := c.written(); blk != nil {
				return blk
			}
		case stPropagated:
			// A replica failure degrades the ack but never un-acks the
			// durable primary write.
			if err != nil {
				c.fail(c.srv, err)
			} else {
				c.rec.Holders[1] = c.srv
				c.rec.Outcome = AckFull
			}
			c.finish()
		case stRead:
			if err != nil {
				if blk := c.failed(err); blk != nil {
					return blk
				}
				continue
			}
			c.rec.Slot, c.rec.Holders[0] = leU64(c.blk[c.srv].read[1].Buf), c.srv
			c.rec.Outcome = AckFull
			if c.srv != c.opt.home(c.rec.Key) {
				c.rec.Outcome, c.rec.Failover = AckDegraded, true // served stale from the replica
			}
			c.finish()
		}
	}
}

// deadline is the request's: arrival + opDeadline.
func (c *client) deadline() sim.Time { return c.rec.Arrival + opDeadline }

// sleepFor is the block that computes for d.
func (c *client) sleepFor(d sim.Time) []prog.Call {
	c.sleep[0].Size = d
	return c.sleep[:]
}

// finish logs the request in service; the next starts at the next Next.
func (c *client) finish() {
	c.rec.Done = c.r.Now()
	c.log = append(c.log, c.rec)
	c.i++
	c.st = stArrive
}

// attempt makes attempt c.att of the request on the primary or, with the
// primary out of view, the replica (re-resolved against the current view on
// every attempt), and returns its first block — or nil when the request
// ended: out of attempts (failed), no live copy in view (shed), or the
// copy's window already poisoned and no time to back off.
func (c *client) attempt() []prog.Call {
	if c.att >= c.maxAttempts() {
		c.rec.Outcome = Failed
		c.finish()
		return nil
	}
	c.rec.Retries = c.att
	prim, rep := c.opt.home(c.rec.Key), c.opt.replica(c.rec.Key)
	off := primOff(c.rec.Key)
	switch {
	case !c.suspect[prim]:
		c.srv = prim
	case !c.suspect[rep]:
		// Degraded path: the replica slot doubles as the target, versioned
		// from its own cell so monotonicity is preserved.
		c.srv, off = rep, replOff(c.opt.Keys, c.rec.Key)
	default:
		c.rec.Outcome = Shed // no live copy in view: shed immediately
		c.finish()
		return nil
	}
	if err := c.wins[c.srv].Err(); err != nil {
		return c.failed(err)
	}
	b := &c.blk[c.srv]
	if c.rec.Write {
		b.fetch[1].Off, c.st = off, stFetched
		return b.fetch[:]
	}
	b.read[1].Off, c.st = off, stRead
	return b.read[:]
}

// written acknowledges a write whose new version is durable on c.srv and,
// when that is the primary, propagates it to the replica with an atomic max
// under a shared lock: replicas converge to the newest version under any
// interleaving, so no read-check is needed. It returns the propagation's
// block, or nil when the request ended.
func (c *client) written() []prog.Call {
	c.rec.Slot, c.rec.Holders[0] = c.slot, c.srv
	c.rec.Outcome = AckDegraded
	key := c.rec.Key
	if c.srv != c.opt.home(key) {
		c.rec.Failover = true
		c.finish()
		return nil
	}
	c.srv = c.opt.replica(key)
	if c.suspect[c.srv] {
		c.finish()
		return nil
	}
	if err := c.wins[c.srv].Err(); err != nil {
		c.fail(c.srv, err)
		c.finish()
		return nil
	}
	c.attempted = append(c.attempted, attempt{Key: key, Slot: c.slot})
	b := &c.blk[c.srv]
	b.prop[1].Off = replOff(c.opt.Keys, key)
	binary.LittleEndian.PutUint64(b.prop[1].Buf, c.slot)
	c.st = stPropagated
	return b.prop[:]
}

// failed notes a failed attempt on c.srv and returns the backoff before the
// next attempt, or nil when the request failed: degraded, or no time left.
func (c *client) failed(err error) []prog.Call {
	c.fail(c.srv, err)
	d, ok := c.backoff(c.att, c.r.Now(), c.deadline())
	if !ok {
		c.rec.Outcome = Failed
		c.finish()
		return nil
	}
	c.att, c.st = c.att+1, stAttempt
	return c.sleepFor(d)
}

// maxAttempts is the retry bound under the current degradation level.
func (c *client) maxAttempts() int {
	if c.degradedMode {
		return 1 // budget exhausted: single attempt, no backoff
	}
	return maxRetries + 1
}

// backoff is the exponential-backoff interval before attempt att+1 (att
// 0-based), capped and jittered from the client RNG, at time now. It reports
// false — no retry — when degraded or when the deadline would pass before
// the retry could start.
func (c *client) backoff(att int, now, deadline sim.Time) (sim.Time, bool) {
	if c.degradedMode {
		return 0, false
	}
	d := backoffBase << uint(att)
	if d > backoffCap {
		d = backoffCap
	}
	d += sim.Time(c.rng.Int63n(int64(backoffBase) + 1))
	return d, now+d <= deadline
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
