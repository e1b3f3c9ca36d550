package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/peertab"
)

// Counter-signal epoch transport.
//
// The default (TransportGATS) control plane carries typed 8-byte packets —
// KindPostNotify, KindDone — whose receive side dispatches through the
// engine. TransportSignal re-expresses the same post/start/complete/wait
// handshake as pairs of monotonically increasing 64-bit counters, in the
// style of GPU-interconnect signal channels: each notification is a single
// one-sided 16-byte write of the sender's outbound counter into a replica
// the receiver holds locally, and "waiting" is observing the local replica
// cross a threshold. Three properties fall out of the counter algebra:
//
//   - idempotence: a replica write carries the counter's absolute value,
//     so duplicated or reordered writes are recognized (serial-number
//     comparison against the replica) and discarded without side effects;
//   - persistence: the replica IS the history — a signal that arrives
//     before the waiter starts spinning is still there when it catches up,
//     which is exactly the persistence Section VII-B demands of grants;
//   - local-completion gating: because the NIC orders the done signal
//     behind the epoch's data toward the same peer, the origin may fire it
//     at local (wire) completion instead of waiting for the remote ack,
//     and MPI_WIN_COMPLETE needs only local completion — the transport's
//     latency win.
//
// Counters start at the window's SignalBase and are compared with
// serial-number arithmetic, so the algebra survives uint64 wraparound.

// Transport selects a window's control-plane representation.
type Transport int

const (
	// TransportGATS is the default typed-control-packet plane.
	TransportGATS Transport = iota
	// TransportSignal carries grant/done notifications (and the user-level
	// Signal/WaitSignal channel) as one-sided counter-replica writes.
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

// Signal channels: each peer pair maintains one counter pair per channel.
const (
	sigGrant = 0 // exposure opened / lock granted (cumulative e count)
	sigDone  = 1 // access-epoch done (cumulative access id)
	sigUser  = 2 // application-level Signal/WaitSignal notifications
	sigChans = 3
)

// sigBytes is the wire size of one signal write: the 8-byte counter value
// plus the 8-byte replica address (window/channel routing).
const sigBytes = 16

// sigNewer reports whether raw counter value a is newer than b under
// serial-number arithmetic (RFC 1982): correct across uint64 wraparound as
// long as the two values are within 2^63 of each other, which epoch and
// signal counts always are.
func sigNewer(a, b uint64) bool { return int64(a-b) > 0 }

// sigCounters is the per-peer signal state: the local replicas of the
// peer's outbound counters (one per channel, raw — i.e. offset by the
// window's SignalBase) and this side's outbound user-signal count.
type sigCounters struct {
	in      [sigChans]uint64
	userOut int64
}

// sigPeer returns the signal counters toward peer i, building the table on
// first use so non-signal windows never pay for it. Replicas start at the
// window's SignalBase, not at zero.
func (w *Window) sigPeer(i int) *sigCounters {
	if w.sig == nil {
		b := w.sigBase
		t := peertab.New(w.n, sigCounters{in: [sigChans]uint64{b, b, b}})
		w.sig = &t
	}
	return w.sig.Get(i)
}

// sigLocalGate reports whether this window's access epochs complete on
// local (wire) completion instead of remote completion. Only the paper's
// design (ModeNew) on the signal transport takes the relaxation: vanilla
// keeps its remote gating so the signal transport changes only its wire
// representation, and flush-mode completion semantics are flush-defined.
func (w *Window) sigLocalGate() bool {
	return w.transport == TransportSignal && w.mode == ModeNew
}

// applySignal merges one inbound counter-replica write from src. Runs in
// NIC context for internode writes (KindSignal delivery) and inline for
// intranode/self user signals. Stale writes — duplicates, or replays
// arriving behind a newer value — are discarded before any dispatch, which
// is what makes signal delivery idempotent under fabric-level dup/reorder.
func (w *Window) applySignal(src, ch int, raw uint64) {
	if ch < 0 || ch >= sigChans {
		w.raisef("signal from %d on unknown channel %d", src, ch)
	}
	c := w.sigPeer(src)
	if !sigNewer(raw, c.in[ch]) {
		w.stats.SignalsStale++
		return
	}
	c.in[ch] = raw
	w.stats.SignalsRecv++
	// Recover the logical count: exact under wraparound because raw was
	// produced as sigBase + count on the sender with the same base.
	count := int64(raw - w.sigBase)
	switch ch {
	case sigGrant:
		w.eng.applyControl(ctlGrant, w, src, count)
	case sigDone:
		w.eng.applyControl(ctlDone, w, src, count)
	case sigUser:
		w.dirty = true
		w.rank.Wake.Fire()
	}
}

// sendUserSignal increments the outbound user counter toward dst and ships
// its new value: self applies inline, same-node rides the notification
// FIFO, internode is one one-sided replica write.
func (w *Window) sendUserSignal(dst int) {
	if dst < 0 || dst >= w.n {
		w.raisef("Signal target %d out of range (n=%d)", dst, w.n)
	}
	c := w.sigPeer(dst)
	c.userOut++
	w.stats.SignalsSent++
	me := w.rank.ID
	if dst == me {
		w.applySignal(me, sigUser, w.sigBase+uint64(c.userOut))
		return
	}
	net := w.eng.rt.world.Net
	if net.Cfg.SameNode(me, dst) {
		// The FIFO word carries the logical count (the 32-bit value field
		// cannot hold a raw near-wrap counter); the receiver re-bases it.
		word := packWord(ctlUserSig, w.id, me, c.userOut)
		if !net.Fifo(me, dst).Push(word) {
			w.eng.backlog = append(w.eng.backlog, fifoWordTo{dst: dst, word: word})
		}
		w.eng.rt.world.Rank(dst).Wake.Fire()
		return
	}
	p := net.AllocPacketAt(me)
	p.Src, p.Dst, p.Kind, p.Size = me, dst, fabric.KindSignal, sigBytes
	p.Arg = [4]int64{w.id, sigUser, int64(w.sigBase + uint64(c.userOut)), 0}
	net.Send(p)
}

// --- Application API ---------------------------------------------------- //

// Signal posts one user-level signal toward target: the cumulative signal
// counter toward target increments and its new value is written one-sidedly
// into target's replica. Available on every mode; on the GATS transport it
// still works (the counter algebra does not depend on the epoch plane) but
// the signal transport is its intended home.
func (w *Window) Signal(target int) {
	w.checkLive()
	if !w.rank.ChargeCall() {
		return
	}
	w.sendUserSignal(target)
}

// SignalCount returns the cumulative number of user signals received from
// src — the local replica of src's outbound counter, re-based.
func (w *Window) SignalCount(src int) int64 {
	if src < 0 || src >= w.n {
		w.raisef("SignalCount source %d out of range (n=%d)", src, w.n)
	}
	if w.sig == nil {
		return 0
	}
	return int64(w.sig.Peek(src).in[sigUser] - w.sigBase)
}

// WaitSignal waits until at least count user signals from src have been
// observed in the local replica. A window abort or a fabric declaration
// that src is unreachable unwinds the spin with the cause instead of
// hanging forever — the dead-peer-mid-spin propagation rule: a replica that
// can no longer be written must not be waited on.
func (w *Window) WaitSignal(src int, count int64) {
	w.checkLive()
	if !w.rank.ChargeCall() {
		return
	}
	if !w.rank.WaitUntil("win-signal", func() bool {
		return w.SignalCount(src) >= count || w.err != nil || w.eng.peerDead(src)
	}) {
		return
	}
	if w.SignalCount(src) >= count {
		return
	}
	if w.err != nil {
		panic(w.err)
	}
	err := w.newRMAError(ErrRankUnreachable, src,
		"WaitSignal spinning on unreachable peer (observed %d of %d)", w.SignalCount(src), count)
	err.Peers = []int{src}
	panic(err)
}

// Transport returns the window's control-plane transport.
func (w *Window) Transport() Transport { return w.transport }

// SignalState snapshots the signal counters toward one peer (introspection
// for tests and the fuzzer's oracle).
type SignalState struct {
	GrantRaw uint64 // raw grant-channel replica (sigBase-offset)
	DoneRaw  uint64 // raw done-channel replica
	UserRecv int64  // logical user signals received from the peer
	UserSent int64  // logical user signals sent toward the peer
}

// SignalPeerState returns the signal-counter snapshot toward peer.
func (w *Window) SignalPeerState(peer int) SignalState {
	if w.sig == nil {
		return SignalState{GrantRaw: w.sigBase, DoneRaw: w.sigBase}
	}
	c := w.sig.Peek(peer)
	return SignalState{
		GrantRaw: c.in[sigGrant],
		DoneRaw:  c.in[sigDone],
		UserRecv: int64(c.in[sigUser] - w.sigBase),
		UserSent: c.userOut,
	}
}
