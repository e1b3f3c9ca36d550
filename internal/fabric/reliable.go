package fabric

import "repro/internal/sim"

// Go-back-N reliability sublayer. Active only when fault injection is
// enabled (Network.EnableFaults): the zero-fault fast path pays one nil
// check in descTxDone and nothing else.
//
// Each (directed internode link, rail) pair carries an independent sequence
// space — multi-rail NICs run one go-back-N stream per rail, mirroring real
// per-QP reliability. The sender keeps every unacknowledged packet in a
// stable (non-pooled) copy and arms a per-link retransmission timer with
// exponential backoff on the virtual clock; the receiver delivers exactly
// the expected sequence number (duplicates and gaps are dropped — go-back-N
// keeps no reorder buffer, preserving the per-(link, rail) FIFO order; on a
// single rail that is exactly the per-link FIFO the RMA protocol's
// done-after-data guarantee relies on) and acknowledges cumulatively, both
// piggybacked on reverse same-rail traffic and via dedicated KindAck
// packets. Flow-control credits charged at first transmission are returned
// by the cumulative ACK — or reconciled in bulk when a flapped peer is
// declared unreachable — so a lossy link can never leak the sender's credit
// pool.

// relLink is the ARQ state of one (directed link, rail) stream. Transmit-
// side fields are mutated by events at the source rank, receive-side fields
// (expect) by events at the destination; the kernel is single-threaded, so
// one struct safely holds both ends.
type relLink struct {
	fs       *faultState
	src, dst int
	rail     int

	// Transmit side.
	nextSeq uint64
	unacked []*Packet // stable copies, sequence order
	timer   *sim.Timer
	backoff uint // consecutive-expiry shift applied to RTO (capped)
	retries int  // consecutive expiries since the last ACK progress
	dead    bool // peer declared unreachable; everything is dropped

	// Receive side.
	expect uint64
}

// rto returns the current backed-off retransmission timeout.
func (l *relLink) rto() sim.Time {
	shift := l.backoff
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	return l.fs.fp.RTO << shift
}

// sendReliable takes over a descriptor whose wire occupancy just finished:
// the packet is sequenced, copied into a stable retransmission buffer, and
// handed to the fault injector. Replaces descDeliver/descCreditReturn on
// the faulty path; the descriptor is retired here.
func (fs *faultState) sendReliable(d *desc) {
	n := d.n
	orig := d.pkt
	rail := d.rail
	src, dst := orig.Src, orig.Dst
	l := fs.link(src, dst, rail)
	if l.dead {
		// Peer already declared unreachable: reconcile the credit charged at
		// transmit and drop the packet on the floor.
		if n.creditInit > 0 {
			n.rails[rail].peers.Get(d.dst).credits--
		}
		fs.stats[src].Drops++
		if orig.pooled {
			fs.nw.release(orig)
		}
		n.freeDesc(d)
		n.tryStart(rail)
		return
	}
	// Stable copy: the original may be pooled and must not be retained, and
	// OnTxDone already fired (local completion precedes remote delivery).
	sp := &Packet{}
	*sp = *orig
	sp.OnTxDone = nil
	sp.pooled = false
	sp.rel = true
	sp.nw = fs.nw // literal packets may carry no back-pointer; relDeliver needs one
	sp.Seq = l.nextSeq
	l.nextSeq++
	sp.Ack = fs.link(dst, src, rail).expect // piggybacked cumulative ACK (same rail)
	if orig.pooled {
		fs.nw.release(orig)
	}
	n.freeDesc(d)
	l.unacked = append(l.unacked, sp)
	fs.stats[src].Sent++
	if !l.timer.Armed() {
		l.timer.Reset(l.rto())
	}
	fs.inject(sp)
	n.tryStart(rail)
}

// recvReliable runs at the destination when an injected copy arrives. It
// validates the packet, applies the checksum model, processes the
// cumulative ACK, dedups/orders sequenced data and acknowledges.
func (fs *faultState) recvReliable(p *Packet) {
	if err := p.Validate(fs.nw.N()); err != nil {
		panic("fabric: reliability sublayer received invalid packet: " + err.Error())
	}
	st := &fs.stats[p.Dst]
	if p.corrupt {
		// Checksum failure: discarded before any field is trusted; the
		// sender's retransmission recovers the clean copy.
		st.CorruptDrops++
		return
	}
	// The cumulative ACK field covers the reverse data direction of the
	// same rail.
	fs.link(p.Dst, p.Src, int(p.Rail)).ackTo(p.Ack)
	if p.Kind == KindAck {
		return
	}
	l := fs.link(p.Src, p.Dst, int(p.Rail))
	switch {
	case p.Seq == l.expect:
		l.expect++
		fs.nw.deliver(p)
	case p.Seq < l.expect:
		st.DupDrops++ // duplicate delivery: already consumed, drop
	default:
		st.GapDrops++ // a predecessor is missing: go-back-N drops successors
	}
	// Always acknowledge — re-ACKs after dup/gap drops are what resync a
	// sender whose ACKs were lost.
	fs.sendAck(p.Dst, p.Src, int(p.Rail))
}

// ackTo applies a cumulative acknowledgement: every unacked packet with
// Seq < upTo is confirmed, its flow-control credit returns, and the
// retransmission timer resets (or stops when the window empties).
func (l *relLink) ackTo(upTo uint64) {
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
	fs := l.fs
	nic := fs.nw.nics[l.src]
	for i := 0; i < n; i++ {
		l.unacked[i] = nil
		if nic.creditInit > 0 {
			nic.rails[l.rail].peers.Get(l.dst).credits--
		}
	}
	l.unacked = append(l.unacked[:0], l.unacked[n:]...)
	fs.stats[l.src].Acked += int64(n)
	l.retries = 0
	l.backoff = 0
	if len(l.unacked) == 0 {
		l.timer.Stop()
	} else {
		l.timer.Reset(l.rto())
	}
	nic.tryStart(l.rail) // returned credits may unblock queued descriptors
}

// sendAck emits a dedicated cumulative ACK from -> to. ACKs are hardware-
// level (they bypass the injection pipeline and flow control, like the
// credit-return ACKs of the lossless model) but still cross the faulty
// wire: they can be dropped or delayed, which the sender's timer absorbs.
func (fs *faultState) sendAck(from, to, rail int) {
	now := fs.nw.K.Now()
	key := linkKey{from, to}
	st := &fs.stats[from]
	if fs.linkDown(key, now) {
		st.AcksDropped++
		return
	}
	if fs.fp.Drop > 0 && fs.rng.Float64() < fs.fp.Drop {
		st.AcksDropped++
		return
	}
	a := &Packet{
		Src:  from,
		Dst:  to,
		Kind: KindAck,
		Ack:  fs.link(to, from, rail).expect,
		Rail: uint8(rail),
		rel:  true,
		nw:   fs.nw,
	}
	st.AcksSent++
	fs.nw.K.AfterCall(fs.nw.Cfg.AckLatency+fs.jitter(), relDeliver, a)
}

// onTimer fires when the link's RTO expires with packets still unacked:
// go-back-N resends the whole window (each copy re-rolled through the
// injector), doubles the timeout, and — once MaxRetries consecutive
// expiries pass without ACK progress — declares the peer unreachable.
func (l *relLink) onTimer() {
	if l.dead || len(l.unacked) == 0 {
		return
	}
	fs := l.fs
	l.retries++
	if fs.fp.MaxRetries > 0 && l.retries > fs.fp.MaxRetries {
		l.declareUnreachable()
		return
	}
	fs.stats[l.src].Retransmits += int64(len(l.unacked))
	for _, sp := range l.unacked {
		sp.Ack = fs.link(l.dst, l.src, l.rail).expect // refresh the piggyback
		fs.inject(sp)
	}
	if l.backoff < maxBackoffShift {
		l.backoff++
	}
	l.timer.Reset(l.rto())
}

// declareUnreachable gives up on the peer: the retransmission window is
// discarded, every credit it held is reconciled back to the sender's pool
// (so traffic to other peers keeps flowing), and the upper layer's
// unreachable handler — internal/core's error propagation — is notified.
func (l *relLink) declareUnreachable() {
	fs := l.fs
	l.dead = true
	l.timer.Stop()
	nic := fs.nw.nics[l.src]
	if nic.creditInit > 0 {
		nic.rails[l.rail].peers.Get(l.dst).credits -= len(l.unacked)
	}
	for i := range l.unacked {
		l.unacked[i] = nil
	}
	l.unacked = l.unacked[:0]
	fs.stats[l.src].Unreachable++
	nic.tryStart(l.rail)
	if h := fs.nw.onUnreachable; h != nil {
		h(l.src, l.dst)
	}
}
