package fabric

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// nicSend is one packet of a driven stream, posted at virtual time at in a
// kernel event of its own, or in the previous send's event when join is set
// (a join send has the previous send's time).
type nicSend struct {
	at       sim.Time
	join     bool
	src, dst int
	kind     Kind
	size     int64
	region   int64 // registration-cache key (0: untracked)
	hook     bool  // carries an OnTxDone
	reply    bool  // its destination answers twice from the delivery event: same kind and size, back to the source
}

// nicMark is one observed pipeline event: packet id's OnTxDone (rx false)
// or its delivery (rx true), at virtual time at, on rail.
type nicMark struct {
	at   sim.Time
	id   int
	rx   bool
	rail uint8
}

// driveNIC runs sends through an n-rank crossbar, under the adversary when
// faults is set. It returns them with the replies they drew appended (each
// at the instant it was posted), the ids in the order they were posted, and
// every hook and delivery in the order they fired. Packet i of all carries
// id i.
func driveNIC(t testing.TB, cfg Config, n int, sends []nicSend, faults *FaultProfile) (all []nicSend, posted []int, marks []nicMark) {
	t.Helper()
	k := sim.NewKernel()
	nw := NewNetwork(k, n, cfg)
	if faults != nil {
		nw.EnableFaults(*faults)
	}
	all = slices.Clone(sends)
	hook := func(p *Packet) { marks = append(marks, nicMark{at: k.Now(), id: int(p.Arg[0]), rail: p.Rail}) }
	post := func(id int) {
		s := all[id]
		p := &Packet{Src: s.src, Dst: s.dst, Kind: s.kind, Size: s.size, Arg: [4]int64{int64(id), 0, 0, s.region}}
		if s.hook {
			p.OnTxDone = hook
		}
		posted = append(posted, id)
		nw.Send(p)
	}
	for r := 0; r < n; r++ {
		nw.SetHandler(r, func(p *Packet) {
			id := int(p.Arg[0])
			marks = append(marks, nicMark{at: k.Now(), id: id, rx: true, rail: p.Rail})
			if s := all[id]; s.reply {
				r := nicSend{at: k.Now(), src: s.dst, dst: s.src, kind: s.kind, size: s.size, hook: s.hook}
				all = append(all, r, r)
				post(len(all) - 2)
				post(len(all) - 1)
			}
		})
	}
	for i := 0; i < len(sends); {
		j := i + 1
		for j < len(sends) && sends[j].join {
			j++
		}
		first, last := i, j
		k.At(sends[i].at, func() {
			for id := first; id < last; id++ {
				post(id)
			}
		})
		i = j
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return all, posted, marks
}

// gridConfig is a crossbar whose every term is a multiple of 500 ns at the
// sizes nicKinds traffic uses (1 byte = 1 ns of wire), so wire ends, credit
// returns and enqueues keep landing on the same nanosecond.
func gridConfig(credits int, ack sim.Time, channels int) Config {
	cfg := DefaultConfig()
	cfg.Alpha = 1000
	cfg.BytesPerUs = 1000
	cfg.CreditsPerPeer = credits
	cfg.AckLatency = ack
	cfg.Channels = channels
	cfg.RegMissCost = 2000
	return cfg
}

// nicKinds mixes control-rail and data-rail kinds.
var nicKinds = []Kind{KindPutData, KindDone, KindSignal, KindAccData, KindGetReq, KindGetResp}

// randomSends draws count sends over n ranks on a 500 ns grid: a third of
// them at the instant of the one before, a quarter of those in its event,
// and a quarter answered twice from their delivery event. bigPuts adds 1 MiB
// puts, which a multi-rail NIC stripes.
func randomSends(seed uint64, n, count int, bigPuts bool) []nicSend {
	rng := sim.NewRNG(seed)
	sizes := []int64{0, 500, 1000, 1500, 4000, 8000}
	out := make([]nicSend, count)
	var at sim.Time
	for i := range out {
		s := nicSend{src: rng.Intn(n), kind: nicKinds[rng.Intn(len(nicKinds))], size: sizes[rng.Intn(len(sizes))],
			region: int64(rng.Intn(5)), hook: rng.Intn(2) == 0, reply: rng.Intn(4) == 0}
		s.dst = (s.src + 1 + rng.Intn(n-1)) % n
		if bigPuts && s.kind == KindPutData && rng.Intn(3) == 0 {
			s.size = 1 << 20
		}
		switch {
		case i > 0 && rng.Intn(3) == 0:
			s.join = rng.Intn(4) == 0
		default:
			at += 500 * sim.Time(rng.Intn(8))
		}
		s.at = at
		out[i] = s
	}
	return out
}

// transcriptHash renders marks rank by rank, each in the order it fired on
// that rank (a hook on the source, a delivery on the destination) with an
// instant's marks grouped by rail, as "ns id tx|rx rail" lines, and hashes
// them. Neither the order of same-instant events on different ranks (a
// sharded kernel runs the ranks apart) nor across the rails of one NIC is
// part of the contract (DESIGN.md, "Rails").
func transcriptHash(sends []nicSend, marks []nicMark, n int) string {
	h := fnv.New64a()
	for r := 0; r < n; r++ {
		var mine []nicMark
		for _, m := range marks {
			if s := sends[m.id]; m.rx && s.dst == r || !m.rx && s.src == r {
				mine = append(mine, m)
			}
		}
		slices.SortStableFunc(mine, func(a, b nicMark) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.rail, b.rail)) })
		fmt.Fprintf(h, "rank %d\n", r)
		for _, m := range mine {
			dir := "tx"
			if m.rx {
				dir = "rx"
			}
			fmt.Fprintf(h, "%d %d %s %d\n", m.at, m.id, dir, m.rail)
		}
	}
	return fmt.Sprintf("%d:%016x", len(marks), h.Sum64())
}

// TestGoldenNICSchedule pins the exact hook and delivery transcript of seeded
// random traffic through a 4-rank crossbar, rank by rank (transcriptHash),
// under every credit window that stalls differently (1, 2, 64), with and
// without ACK latency, plus one two-data-rail config whose 1 MiB puts
// stripe, and the same traffic under a lossless adversary and under the
// go-back-N layer. Enqueues share instants and events, some run in delivery
// (cross) events, and wire ends, credit returns and enqueues share
// nanoseconds, so a pipeline that decides a same-instant start differently
// moves a line. The hashes were taken from the event-per-step pipeline (one
// wire-end event and one credit-return event per packet) this one replaces.
func TestGoldenNICSchedule(t *testing.T) {
	for _, c := range []struct {
		credits  int
		ack      sim.Time
		channels int
		faults   *FaultProfile
		want     string
	}{
		{1, 0, 1, nil, "2230:8ce4330fa14f9b96"},
		{1, 2000, 1, nil, "2260:6f9852dc43f90b52"},
		{2, 0, 1, nil, "2214:6320d85537dd8fd2"},
		{2, 2000, 1, nil, "2127:7878cb252d1b9618"},
		{64, 0, 1, nil, "2111:90d05850b9f63e4d"},
		{64, 2000, 1, nil, "2194:cb94c10c60ab074e"},
		{2, 2000, 2, nil, "2238:df9455198634d777"},
		{1, 0, 1, &FaultProfile{Seed: 1}, "2230:8ce4330fa14f9b96"},
		{2, 0, 1, &FaultProfile{Seed: 2, Drop: 0.05}, "2214:83da44274f5cb912"},
	} {
		sends := randomSends(uint64(c.credits)<<8|uint64(c.ack)<<16|uint64(c.channels), 4, 1000, c.channels > 1)
		all, _, marks := driveNIC(t, gridConfig(c.credits, c.ack, c.channels), 4, sends, c.faults)
		if got := transcriptHash(all, marks, 4); got != c.want {
			t.Errorf("credits %d ack %dns channels %d faults %v: transcript %s, pinned %s", c.credits, c.ack, c.channels, c.faults != nil, got, c.want)
		}
	}
}

// FuzzNICPipeline decodes a crossbar config (0-4 credits per peer, ACK
// latency, one or two data rails) and a packet stream from the input and
// checks the pipeline's contract on what it delivers, replies posted from
// delivery events included: every packet is
// delivered exactly once, FIFO per (source, peer, rail); its hook fires at
// its wire end and Alpha before its delivery; a rail's transmissions never
// overlap; no transmission starts while its peer holds CreditsPerPeer
// unreturned packets on the rail; and the wire never idles while a queued
// per-peer head has credit. Sizes stay below the striping threshold, so a
// packet's wire end minus its wire time is its start.
func FuzzNICPipeline(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{2, 2, 1, 0, 0x10, 3, 5, 1, 0x21, 2, 4, 0, 0x30, 1, 2, 6, 1, 0x40, 5})
	f.Add([]byte{4, 1, 1, 2, 0x91, 3, 1, 0, 0x25, 4, 2, 1, 0x37, 0, 3, 3, 0xa6, 2, 0, 2, 0x13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := gridConfig(int(data[0]%5), 1000*sim.Time(data[1]%4), 1+int(data[2]%2))
		cfg.RegCacheEntries = 0
		const n = 4
		sizes := []int64{0, 1, 500, 999, 1000, 2500, 8000, 30000}
		var sends []nicSend
		var at sim.Time
		for b := data[3:]; len(b) >= 4 && len(sends) < 64; b = b[4:] {
			s := nicSend{src: int(b[1]) % n, kind: nicKinds[int(b[2])%len(nicKinds)], size: sizes[int(b[3])%len(sizes)], hook: true, reply: b[0]&0x20 != 0}
			s.dst = (s.src + 1 + int(b[1]/n)%(n-1)) % n
			s.join = len(sends) > 0 && b[0]&1 != 0
			if !s.join {
				at += 250 * sim.Time(b[0]>>1%16)
			}
			s.at = at
			sends = append(sends, s)
		}
		all, posted, marks := driveNIC(t, cfg, n, sends, nil)
		checkNICContract(t, cfg, all, posted, marks)
	})
}

// checkNICContract holds a driveNIC run to FuzzNICPipeline's contract. Every
// send must carry a hook.
func checkNICContract(t *testing.T, cfg Config, sends []nicSend, posted []int, marks []nicMark) {
	type pkt struct {
		start, end, ret sim.Time
		tx, rx          int // mark indexes
		rail            uint8
	}
	ps := make([]pkt, len(sends))
	for i := range ps {
		ps[i].tx, ps[i].rx = -1, -1
	}
	for mi, m := range marks {
		p := &ps[m.id]
		switch {
		case m.rx && p.rx >= 0, !m.rx && p.tx >= 0:
			t.Fatalf("packet %d: second mark %+v", m.id, m)
		case m.rx:
			p.rx, p.rail = mi, m.rail
		default:
			p.tx = mi
		}
	}
	for i := range ps {
		p := &ps[i]
		if p.tx < 0 || p.rx < 0 || p.rx < p.tx {
			t.Fatalf("packet %d: hook mark %d, delivery mark %d: want both, hook first", i, p.tx, p.rx)
		}
		p.end = marks[p.tx].at
		p.start = p.end - cfg.WireTime(sends[i].size)
		p.ret = p.end + cfg.Alpha + cfg.AckLatency
		if rx := marks[p.rx].at; rx != p.end+cfg.Alpha {
			t.Fatalf("packet %d: wire end %d, delivered at %d, want end + Alpha", i, p.end, rx)
		}
		if p.start < sends[i].at {
			t.Fatalf("packet %d: started at %d before its enqueue at %d", i, p.start, sends[i].at)
		}
	}
	// Per (source, rail): transmissions in hook order, which is wire order.
	type railKey struct {
		src  int
		rail uint8
	}
	rails := map[railKey][]int{}
	for i := range ps {
		key := railKey{sends[i].src, ps[i].rail}
		rails[key] = append(rails[key], i)
	}
	for key, ids := range rails {
		sort.Slice(ids, func(a, b int) bool { return ps[ids[a]].tx < ps[ids[b]].tx })
		outstanding := func(dst int, at sim.Time, before int) int {
			c := 0
			for _, j := range ids[:before] {
				if sends[j].dst == dst && ps[j].start <= at && ps[j].ret > at {
					c++
				}
			}
			return c
		}
		for m, i := range ids {
			if m > 0 && ps[i].start < ps[ids[m-1]].end {
				t.Fatalf("rail %+v: packet %d starts at %d inside packet %d's wire [%d, %d)", key, i, ps[i].start, ids[m-1], ps[ids[m-1]].start, ps[ids[m-1]].end)
			}
			if c := cfg.CreditsPerPeer; c > 0 && outstanding(sends[i].dst, ps[i].start, m) >= c {
				t.Fatalf("rail %+v: packet %d starts at %d with %d packets toward rank %d unreturned", key, i, ps[i].start, c, sends[i].dst)
			}
		}
		lastRx := map[int]int{} // per peer: the last packet posted
		for _, i := range posted {
			if sends[i].src != key.src || ps[i].rail != key.rail {
				continue
			}
			if j, ok := lastRx[sends[i].dst]; ok && ps[i].rx < ps[j].rx {
				t.Fatalf("rail %+v: packet %d sent after %d toward rank %d but delivered before it", key, i, j, sends[i].dst)
			}
			lastRx[sends[i].dst] = i
		}
		// Work conservation, checked at every instant the pipeline's state
		// can change: an idle rail with a queued, credited per-peer head.
		var instants []sim.Time
		for _, i := range ids {
			instants = append(instants, sends[i].at, ps[i].end, ps[i].ret)
		}
		for _, at := range instants {
			busy := false
			for _, i := range ids {
				busy = busy || (ps[i].start <= at && at < ps[i].end)
			}
			if busy {
				continue
			}
			heads := map[int]bool{} // peers whose queued head is seen, in posting order
			for _, i := range posted {
				s := sends[i]
				if s.src != key.src || ps[i].rail != key.rail || s.at > at || ps[i].start <= at || heads[s.dst] {
					continue
				}
				heads[s.dst] = true
				if c := cfg.CreditsPerPeer; c == 0 || outstanding(s.dst, at, len(ids)) < c {
					t.Fatalf("rail %+v idle at %d while packet %d toward rank %d is queued with credit (it starts at %d)", key, at, i, s.dst, ps[i].start)
				}
			}
		}
	}
}
