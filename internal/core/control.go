package core

import (
	"fmt"

	"repro/internal/fabric"
)

// The control plane: everything a window tells a peer outside the data
// path, defined once. notify is the only sender and apply the only
// receiver. Between them a notification is applied inline (self), rides
// the pairwise wait-free 64-bit FIFO and is consumed by the peer's
// progress engine (same node; Section VII-D, steps 5-6), or is one NIC
// packet (internode) in one of two wire formats:
//
//   - typed: an 8-byte packet {win, value} whose kind names the channel —
//     the default transport's grants and dones, and lock commands always;
//   - signal: a 16-byte KindSignal write {win, channel, SignalBase+value}
//     of the sender's counter into the receiver's replica, in the style of
//     GPU-interconnect signal channels — TransportSignal's grants and
//     dones, and user signals always. The receiver recovers the count as
//     int64(raw − SignalBase), exact across the uint64 wrap.
//
// Three of the five channels are cumulative counters in the manner of
// Section VII-B's g_r, "updated one-sidedly by P_r": the value sent is the
// sender's running total, and the receiver's copy (peerCounters.g,
// peerCounters.doneRecv, userCounters.in) is the only copy, raised to the
// largest value seen. Three properties fall out of that:
//
//   - idempotence: a write carries the counter's absolute value, so one
//     that is duplicated or arrives behind a newer value does not advance
//     the counter; a replica write that does not advance is counted stale
//     and discarded before any dispatch;
//   - persistence: the counter IS the history — a notification that lands
//     before the waiter looks is still there when it catches up, which is
//     exactly what Section VII-B demands of grants;
//   - local completion: because the NIC orders the done behind the
//     epoch's data toward the same peer, the origin may fire it at local
//     (wire) completion instead of waiting for the remote ack, and
//     MPI_WIN_COMPLETE needs only local completion — the signal
//     transport's latency win. It is the transport's one semantic effect,
//     and settlesAtWire alone decides it; unlock and fence still wait for
//     the remote ack.

// channel names one control stream of a window toward one peer.
type channel uint64

const (
	// Cumulative counters.
	chGrant channel = iota // exposure opened / lock granted (value = sender's e count toward us)
	chDone                 // access epoch closed (value = its access id)
	chUser                 // application-level Signal (value = signals sent so far)
	// Commands to the target's lock agent. An unlock is "a different kind
	// of done packet" (Section VII-B): like a done, it relies on the NIC's
	// per-peer ordering to reach the target after the epoch's RMA data.
	chLockReq // lock request (value = 1 for shared)
	chUnlock  // lock release
	chCount
)

// typedKind is the typed wire format's packet kind per channel (user
// signals have none: they are replica writes on either transport).
var typedKind = [chCount]fabric.Kind{
	chGrant:   fabric.KindPostNotify,
	chDone:    fabric.KindDone,
	chLockReq: fabric.KindLockReq,
	chUnlock:  fabric.KindUnlock,
}

// Wire sizes: a typed packet is the 8-byte value; a signal write adds the
// 8-byte replica address (window/channel routing).
const (
	typedBytes = 8
	sigBytes   = 16
)

// Transport selects a window's control-plane wire format.
type Transport int

const (
	// TransportGATS is the default typed-control-packet plane.
	TransportGATS Transport = iota
	// TransportSignal carries grant/done notifications as one-sided
	// counter-replica writes.
	TransportSignal
)

// String names the transport for tables and diagnostics.
func (t Transport) String() string {
	switch t {
	case TransportGATS:
		return "gats"
	case TransportSignal:
		return "signal"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// Transport returns the window's control-plane transport.
func (w *Window) Transport() Transport { return w.transport }

// setTransport checks and takes the window's transport options.
func (w *Window) setTransport(opt WinOptions) {
	if opt.Transport != TransportGATS && opt.Transport != TransportSignal {
		w.raisef("unknown %s", opt.Transport)
	}
	w.transport, w.sigBase = opt.Transport, opt.SignalBase
}

// settlesAtWire reports whether op o leaves its epoch's outstanding count
// at local (wire) completion instead of remote completion: a put or
// accumulate of a GATS access epoch, on a window whose mode takes the
// signal transport's relaxation. MPI_WIN_COMPLETE requires only local
// completion, and the NIC's per-peer ordering keeps the done behind the
// data, so the target still sees data before done. Fetch classes complete
// locally only with their response; unlock and fence promise remote
// completion; vanilla keeps its remote gating, so the signal transport
// changes only its wire representation there.
func (w *Window) settlesAtWire(o *rmaOp) bool {
	return w.transport == TransportSignal && w.rules.localGate &&
		o.ep.kind == EpochAccess && (o.class == opPut || o.class == opAcc)
}

// releaseNoCheck closes a NOCHECK passive epoch toward t, which never
// engaged t's lock agent: on the signal transport it bumps t's user-signal
// replica instead (the lock-free notify, observed with WaitSignal or
// SignalCount); the typed plane sends nothing.
func (w *Window) releaseNoCheck(t int) {
	if w.transport == TransportSignal {
		w.sendUserSignal(t)
	}
}

// signalled reports whether channel ch between this rank and peer is a
// counter-replica write — the traffic SignalsSent/Recv/Stale account for
// and, internode, the signal wire format carries: user signals always,
// grants and dones when the signal transport takes them across the wire.
func (w *Window) signalled(peer int, ch channel) bool {
	return ch == chUser || ch < chUser && w.transport == TransportSignal &&
		!w.eng.rt.world.Net.Cfg.SameNode(w.rank.ID, peer)
}

// encode fills p's kind, size and arguments for a notification toward
// p.Dst; decode is its inverse at the receiver.
func (w *Window) encode(p *fabric.Packet, ch channel, value int64) {
	if w.signalled(p.Dst, ch) {
		p.Kind, p.Size = fabric.KindSignal, sigBytes
		p.Arg = [4]int64{w.id, int64(ch), int64(w.sigBase + uint64(value)), 0}
		return
	}
	p.Kind, p.Size = typedKind[ch], typedBytes
	p.Arg = [4]int64{w.id, value, 0, 0}
}

func (w *Window) decode(p *fabric.Packet) (channel, int64) {
	if p.Kind == fabric.KindSignal {
		ch := channel(p.Arg[1])
		if ch > chUser {
			w.raisef("signal from %d on unknown channel %d", p.Src, p.Arg[1])
		}
		// Exact under wraparound: the sender produced raw as base + count
		// with the same base.
		return ch, int64(uint64(p.Arg[2]) - w.sigBase)
	}
	for ch, k := range typedKind {
		if k == p.Kind && channel(ch) != chUser {
			return channel(ch), p.Arg[1]
		}
	}
	w.raisef("packet kind %d from %d is not a control packet", p.Kind, p.Src)
	return 0, 0
}

// packWord encodes a FIFO control word: channel(4) | win(10) | src(18) |
// value(32). The value is always the logical count — the field could not
// hold a SignalBase-offset counter near the wrap.
func packWord(ch channel, win int64, src int, value int64) uint64 {
	if win < 0 || win >= 1<<10 {
		panic(fmt.Sprintf("core: rank %d win %d: window id exceeds FIFO word encoding", src, win))
	}
	if src < 0 || src >= 1<<18 {
		panic(fmt.Sprintf("core: rank %d exceeds FIFO word encoding", src))
	}
	if value < 0 || value >= 1<<32 {
		panic(fmt.Sprintf("core: rank %d win %d: control value %d exceeds FIFO word encoding", src, win, value))
	}
	return uint64(ch)<<60 | uint64(win)<<50 | uint64(src)<<32 | uint64(value)
}

// unpackWord decodes a control word.
func unpackWord(word uint64) (ch channel, win int64, src int, value int64) {
	return channel(word >> 60), int64(word >> 50 & 0x3ff), int(word >> 32 & 0x3ffff), int64(word & 0xffffffff)
}

// notify sends value on channel ch of window w to rank dst: the only place
// in core that picks the medium.
func (e *Engine) notify(w *Window, dst int, ch channel, value int64) {
	if w.signalled(dst, ch) {
		w.eng.ctr.Add(cSignalsSent, 1)
	}
	me := e.rank.ID
	net := e.rt.world.Net
	switch {
	case dst == me:
		e.apply(w, me, ch, value)
	case net.Cfg.SameNode(me, dst):
		word := packWord(ch, w.id, me, value)
		if !net.Fifo(me, dst).Push(word) {
			e.backlog = append(e.backlog, fifoWordTo{dst: dst, word: word})
		}
		// The peer's engine consumes the word at its next sweep; wake it in
		// case it is parked inside an MPI call.
		e.rt.world.Rank(dst).Wake.Fire()
	default:
		p := net.AllocPacketAt(me)
		p.Src, p.Dst = me, dst
		w.encode(p, ch, value)
		net.Send(p)
	}
}

// apply dispatches one notification delivered to this rank, whatever
// carried it: inline for self, NIC context for a packet, the engine's
// sweep for a FIFO word. src is the sender; w is this rank's window.
func (e *Engine) apply(w *Window, src int, ch channel, value int64) {
	switch ch {
	case chGrant:
		if w.merged(src, ch, w.peer(src).recordGrant(value)) {
			w.traceArrivals()
			w.onGrant(src)
		}
	case chDone:
		if w.merged(src, ch, w.peer(src).recordDone(value)) {
			w.traceArrivals()
			w.onDoneRecv(src)
		}
	case chUser:
		u := w.userPeer(src)
		fresh := value > u.in
		if fresh {
			u.in = value
		}
		if w.merged(src, ch, fresh) {
			w.dirty = true
			w.rank.Wake.Fire()
		}
	case chLockReq:
		w.agent.request(src, value == 1)
	case chUnlock:
		w.agent.unlock(src)
	default:
		e.raisef("bad control channel %d from %d (win %d)", ch, src, w.id)
	}
}

// merged accounts a counter write from src that did (fresh) or did not
// advance its counter, and reports whether to dispatch it. A stale replica
// write is dropped here. A typed packet or FIFO word that does not advance
// is ordinary traffic — done(1) behind done(2) when access epochs complete
// out of order — and still wakes the rank as it always has.
func (w *Window) merged(src int, ch channel, fresh bool) bool {
	if !w.signalled(src, ch) {
		return true
	}
	if fresh {
		w.eng.ctr.Add(cSignalsRecv, 1)
	} else {
		w.eng.ctr.Add(cSignalsStale, 1)
	}
	return fresh
}

// flushBacklog retries FIFO words that found their ring full (step 4).
func (e *Engine) flushBacklog() {
	net := e.rt.world.Net
	kept := e.backlog[:0]
	for _, item := range e.backlog {
		if !net.Fifo(e.rank.ID, item.dst).Push(item.word) {
			kept = append(kept, item)
		} else {
			e.rt.world.Rank(item.dst).Wake.Fire()
		}
	}
	e.backlog = kept
}

// consumeFifos drains every same-node peer's notification ring (step 5).
// Lock commands are set aside, still packed, to be served together in step
// 6; a self or internode one reaches the agent directly.
func (e *Engine) consumeFifos() {
	// Same-node peers are the contiguous ProcsPerNode block around this
	// rank (fabric.Config.NodeOf).
	net, ppn := e.rt.world.Net, e.rt.world.Net.Cfg.ProcsPerNode
	lo := net.Cfg.NodeOf(e.rank.ID) * ppn
	for p := lo; p < min(lo+ppn, net.N()); p++ {
		if p == e.rank.ID {
			continue
		}
		f := net.Fifo(p, e.rank.ID)
		for {
			word, ok := f.Pop()
			if !ok {
				break
			}
			ch, winID, src, value := unpackWord(word)
			if ch == chLockReq || ch == chUnlock {
				e.lockBacklog = append(e.lockBacklog, word)
			} else {
				e.apply(e.win(winID), src, ch, value)
			}
		}
	}
}

// processLockBacklog serves lock/unlock requests queued by step 5 (step 6).
func (e *Engine) processLockBacklog() {
	for _, word := range e.lockBacklog {
		ch, winID, src, value := unpackWord(word)
		e.apply(e.win(winID), src, ch, value)
	}
	e.lockBacklog = nil
}
