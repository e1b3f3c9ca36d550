package fabric

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Go-back-N reliability layer over the faulty wire (schedule.go). The
// network builds it iff the fault profile has message faults — Drop, Dup or
// Corrupt non-zero — because only those can make a receiver see something
// other than each packet once; every other configuration pays nothing for
// it.
//
// Each (directed internode link, rail) pair carries an independent sequence
// space — multi-rail NICs run one go-back-N stream per rail, mirroring real
// per-QP reliability. A stream has two halves with disjoint owners: the
// transmit half (relTx) lives with the source rank, whose kernel runs its
// retransmission timer with exponential backoff on the virtual clock; the
// receive half is one counter, the next expected sequence number, kept by
// the destination. The sender retains every unacknowledged packet and puts a
// *copy* on the wire per attempt (drawn from its own packet pool), so what
// crosses to the destination's shard is never what the sender still holds.
// The receiver delivers exactly the expected sequence number (duplicates and
// gaps are dropped — go-back-N keeps no reorder buffer, preserving the
// per-(link, rail) FIFO order; on a single rail that is exactly the per-link
// FIFO the RMA protocol's done-after-data guarantee relies on) and
// acknowledges cumulatively, both piggybacked on reverse same-rail traffic
// and via dedicated KindAck packets. Flow-control credits charged at first
// transmission are returned by the cumulative ACK — or reconciled in bulk
// when the failure detector tears the stream down — so a lossy link can
// never leak the sender's credit pool.

// The adversary's and the reliability layer's counters, in the network's
// metrics set. The source-side ones (sent..tx_drops) count at the sending
// rank of a link, the destination-side ones (rx_drops..acks_dropped) at the
// receiver, each in that rank's own row and shard context.
var (
	cSent         = metrics.Declare("fabric.sent")          // sequenced packets handed to the wire (first copies)
	cRetransmits  = metrics.Declare("fabric.retransmits")   // go-back-N resends after a timeout
	cAcked        = metrics.Declare("fabric.acked")         // sequenced packets confirmed by a cumulative ACK
	cDrops        = metrics.Declare("fabric.drops")         // copies lost on the wire
	cDupsSent     = metrics.Declare("fabric.dups_sent")     // extra copies put on the wire by the duplicator
	cCorrupts     = metrics.Declare("fabric.corrupts")      // copies sent with a failing checksum
	cDelayed      = metrics.Declare("fabric.delayed")       // departures held by a flap window
	cTxDrops      = metrics.Declare("fabric.tx_drops")      // packets dropped at source: source dead, or peer declared unreachable
	cRxDrops      = metrics.Declare("fabric.rx_drops")      // copies absorbed on arrival at a dead destination
	cDupDrops     = metrics.Declare("fabric.dup_drops")     // received copies below the expected sequence (dedup)
	cGapDrops     = metrics.Declare("fabric.gap_drops")     // received copies above the expected sequence (go-back-N)
	cCorruptDrops = metrics.Declare("fabric.corrupt_drops") // received copies discarded by the checksum
	cAcksSent     = metrics.Declare("fabric.acks_sent")     // cumulative ACK packets sent
	cAcksDropped  = metrics.Declare("fabric.acks_dropped")  // ACK packets lost on the wire
)

// RelStats is the part of a rank's reliability counters that benchmarks/
// reads; an adapter over the metrics set.
type RelStats struct{ Retransmits int64 }

// RelStats returns rank r's RelStats.
func (nw *Network) RelStats(r int) RelStats { return RelStats{nw.Counters.Row(r)[cRetransmits]} }

// arqKey identifies one go-back-N stream within its owning rank: the peer at
// the other end plus the NIC rail carrying it. Single-rail networks only
// ever use rail 0.
type arqKey struct{ peer, rail int }

// maxBackoffShift caps exponential backoff at rto << maxBackoffShift so a
// long hold cannot push the next retransmission beyond recovery horizons.
const maxBackoffShift = 10

// relTx is the transmit half of one stream, owned by the source rank.
type relTx struct {
	fs       *faultState
	src, dst int
	rail     int

	nextSeq uint64
	unacked []*Packet // the retained packets, sequence order
	timer   *sim.Timer
	backoff uint // consecutive-expiry shift applied to rto (capped)
}

// txLink returns (creating lazily) the transmit half of the src->dst stream
// on the given rail.
func (fs *faultState) txLink(src, dst, rail int) *relTx {
	fr := &fs.rank[src]
	key := arqKey{dst, rail}
	l, ok := fr.tx[key]
	if !ok {
		if fr.tx == nil {
			fr.tx = make(map[arqKey]*relTx, 8)
		}
		l = &relTx{fs: fs, src: src, dst: dst, rail: rail}
		l.timer = fs.nw.nics[src].k.NewTimer(l.onTimer)
		fr.tx[key] = l
	}
	return l
}

// sendReliable takes over a descriptor whose wire occupancy just finished:
// the packet is sequenced, retained for retransmission, and a first copy put
// on the wire. OnTxDone already fired (local completion precedes remote
// delivery), so the fabric owns the packet from here on.
func (fs *faultState) sendReliable(d *desc) {
	n, p, rail := d.n, d.pkt, d.rail
	src, dst := p.Src, p.Dst
	st := fs.nw.Counters.Row(src)
	if now := n.k.Now(); fs.deadBy(src, now) || fs.detected(dst, now) {
		// Dead source, or peer already declared unreachable: reconcile the
		// credit charged at transmit and drop the packet on the floor.
		if n.creditInit > 0 {
			n.rails[rail].peers.Get(dst).credits--
		}
		st[cTxDrops]++
		fs.nw.release(src, p)
		n.freeDesc(d)
		return
	}
	n.freeDesc(d)
	l := fs.txLink(src, dst, rail)
	p.OnTxDone = nil
	p.rel = true
	p.Seq = l.nextSeq
	l.nextSeq++
	l.unacked = append(l.unacked, p)
	st[cSent]++
	if !l.timer.Armed() {
		l.timer.Reset(fs.rto << l.backoff)
	}
	l.transmit(p)
}

// transmit puts one attempt of retained packet sp through the adversary.
func (l *relTx) transmit(sp *Packet) {
	fs, fp := l.fs, &l.fs.fp
	now := fs.nw.nics[l.src].k.Now()
	st := fs.nw.Counters.Row(l.src)
	at, idx := fs.depart(l.src, l.dst, now)
	if fs.hit(fp.Drop, saltDrop, l.src, l.dst, idx) {
		st[cDrops]++
		return
	}
	corrupt := fs.hit(fp.Corrupt, saltCorrupt, l.src, l.dst, idx)
	if corrupt {
		// The retained packet stays pristine, so recovery delivers clean data.
		st[cCorrupts]++
	}
	fs.fly(sp, at, corrupt)
	if fs.hit(fp.Dup, saltDup, l.src, l.dst, idx) {
		st[cDupsSent]++
		at, _ = fs.depart(l.src, l.dst, now)
		fs.fly(sp, at, false)
	}
}

// fly launches one in-flight copy of sp, leaving the source at time at, with
// the source's current cumulative receive state piggybacked. The copy is
// pooled iff the original was: a handler that retains packets (the
// two-sided inbox) sends literals and gets a literal it may keep.
func (fs *faultState) fly(sp *Packet, at sim.Time, corrupt bool) {
	nw := fs.nw
	src, dst := sp.Src, sp.Dst
	var cp *Packet
	if sp.pooled {
		cp = nw.AllocPacketAt(src)
	} else {
		cp = new(Packet)
	}
	*cp = *sp
	cp.Ack = fs.rank[src].rx[arqKey{dst, int(sp.Rail)}] // reverse direction, same rail
	cp.corrupt = corrupt
	k := nw.nics[src].k
	if nw.topo != nil {
		k.AtCross(at, topoSendPacket, cp, src, -1)
	} else {
		k.AtCross(at+nw.Cfg.Alpha, faultArrive, cp, src, dst)
	}
}

// recvReliable runs at the destination when a copy arrives. It applies the
// checksum model, processes the cumulative ACK, dedups/orders sequenced data
// and acknowledges.
func (fs *faultState) recvReliable(p *Packet) {
	src, dst, rail := p.Src, p.Dst, int(p.Rail)
	fr := &fs.rank[dst]
	if p.corrupt {
		// Checksum failure: discarded before any field is trusted; the
		// sender's retransmission recovers the clean copy.
		fs.nw.Counters.Row(dst)[cCorruptDrops]++
		fs.nw.release(dst, p)
		return
	}
	// The cumulative ACK field covers the reverse data direction of the
	// same rail.
	key := arqKey{src, rail}
	if l := fr.tx[key]; l != nil {
		l.ackTo(p.Ack)
	}
	if p.Kind == KindAck {
		fs.nw.release(dst, p)
		return
	}
	if fr.rx == nil {
		fr.rx = make(map[arqKey]uint64, 8)
	}
	switch expect := fr.rx[key]; {
	case p.Seq == expect:
		fr.rx[key] = expect + 1
		fs.nw.deliver(p)
	case p.Seq < expect:
		fs.nw.Counters.Row(dst)[cDupDrops]++ // duplicate delivery: already consumed, drop
		fs.nw.release(dst, p)
	default:
		fs.nw.Counters.Row(dst)[cGapDrops]++ // a predecessor is missing: go-back-N drops successors
		fs.nw.release(dst, p)
	}
	// Always acknowledge — re-ACKs after dup/gap drops are what resync a
	// sender whose ACKs were lost.
	fs.sendAck(dst, src, rail)
}

// ackTo applies a cumulative acknowledgement: every unacked packet with
// Seq < upTo is confirmed, its flow-control credit returns, and the
// retransmission timer resets (or stops when the window empties).
func (l *relTx) ackTo(upTo uint64) {
	n := 0
	for _, sp := range l.unacked {
		if sp.Seq >= upTo {
			break
		}
		n++
	}
	if n == 0 {
		return
	}
	l.retire(n)
	l.fs.nw.Counters.Row(l.src)[cAcked] += int64(n)
	l.backoff = 0
	if len(l.unacked) == 0 {
		l.timer.Stop()
	} else {
		l.timer.Reset(l.fs.rto)
	}
	l.fs.nw.nics[l.src].tryStart(l.rail) // returned credits may unblock queued descriptors
}

// retire releases the first n retained packets and the credits they hold.
func (l *relTx) retire(n int) {
	nw := l.fs.nw
	if nic := nw.nics[l.src]; nic.creditInit > 0 {
		nic.rails[l.rail].peers.Get(l.dst).credits -= n
	}
	for i, sp := range l.unacked[:n] {
		nw.release(l.src, sp)
		l.unacked[i] = nil
	}
	l.unacked = append(l.unacked[:0], l.unacked[n:]...)
}

// sendAck emits a dedicated cumulative ACK from -> to. ACKs are hardware-
// level (they bypass the injection pipeline, flow control and the topology,
// like the credit-return ACKs of the lossless model) but still cross the
// faulty wire: they can be held, dropped or delayed, which the sender's
// timer absorbs.
func (fs *faultState) sendAck(from, to, rail int) {
	k := fs.nw.nics[from].k
	st := fs.nw.Counters.Row(from)
	at, idx := fs.depart(from, to, k.Now())
	if fs.hit(fs.fp.Drop, saltDrop, from, to, idx) {
		st[cAcksDropped]++
		return
	}
	a := fs.nw.AllocPacketAt(from)
	a.Src, a.Dst, a.Kind, a.Rail, a.rel = from, to, KindAck, uint8(rail), true
	a.Ack = fs.rank[from].rx[arqKey{to, rail}]
	st[cAcksSent]++
	k.AtCross(at+fs.ackFlight, faultArrive, a, from, to)
}

// onTimer fires when the stream's timeout expires with packets still
// unacked: go-back-N resends the whole window (each copy a fresh attempt
// through the adversary) and doubles the timeout. A dead rank's own streams
// stop at its death; a stream toward a dead peer retries until the failure
// detector tears it down.
func (l *relTx) onTimer() {
	if len(l.unacked) == 0 {
		return
	}
	fs := l.fs
	if fs.deadBy(l.src, fs.nw.nics[l.src].k.Now()) {
		l.teardown()
		return
	}
	fs.nw.Counters.Row(l.src)[cRetransmits] += int64(len(l.unacked))
	for _, sp := range l.unacked {
		l.transmit(sp)
	}
	if l.backoff < maxBackoffShift {
		l.backoff++
	}
	l.timer.Reset(fs.rto << l.backoff)
}

// teardown gives up on the stream: the retransmission window is discarded
// and every credit it held is reconciled back to the sender's pool, so
// traffic to other peers keeps flowing.
func (l *relTx) teardown() {
	l.timer.Stop()
	l.retire(len(l.unacked))
	l.fs.nw.nics[l.src].tryStart(l.rail)
}

// diagStreams renders rank r's ARQ stream halves in (peer, rail) order.
func (fr *faultRank) diagStreams(b *strings.Builder, r int) {
	keys := make([]arqKey, 0, len(fr.tx)+len(fr.rx))
	for key := range fr.tx {
		keys = append(keys, key)
	}
	for key := range fr.rx {
		if _, both := fr.tx[key]; !both {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].peer != keys[j].peer {
			return keys[i].peer < keys[j].peer
		}
		return keys[i].rail < keys[j].rail
	})
	for _, key := range keys {
		if l, ok := fr.tx[key]; ok {
			fmt.Fprintf(b, "fault: link %d->%d rail %d: nextSeq=%d unacked=%d backoff=%d", r, key.peer, key.rail, l.nextSeq, len(l.unacked), l.backoff)
			if l.timer.Armed() {
				fmt.Fprintf(b, " rto@t=%d", l.timer.Deadline())
			}
			b.WriteByte('\n')
		}
		if expect, ok := fr.rx[key]; ok {
			fmt.Fprintf(b, "fault: link %d->%d rail %d: expect=%d\n", key.peer, r, key.rail, expect)
		}
	}
}
