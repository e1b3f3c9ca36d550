package core

import "repro/internal/peertab"

// User-level signals: the application's handle on the control plane's
// chUser counter channel (control.go). Available on every mode and on both
// transports — the counter does not depend on the epoch plane — though the
// signal transport is its intended home.

// userCounters is the per-peer user-signal state: the count received from
// the peer and the count sent toward it.
type userCounters struct {
	in, out int64
}

// userPeer returns the user-signal counters toward peer i, building the
// table on first use so windows that never signal never pay for it.
func (w *Window) userPeer(i int) *userCounters {
	if w.user == nil {
		t := peertab.New[userCounters](w.n)
		w.user = &t
	}
	return w.user.Get(i)
}

// sendUserSignal increments the outbound user counter toward dst and ships
// its new value.
func (w *Window) sendUserSignal(dst int) {
	u := w.userPeer(dst)
	u.out++
	w.eng.notify(w, dst, chUser, u.out)
}

// Signal posts one user-level signal toward target: the cumulative signal
// counter toward target increments and its new value is written one-sidedly
// into target's replica.
func (w *Window) Signal(target int) {
	w.checkTarget(target, "Signal target")
	w.checkLive()
	if !w.rank.ChargeCall() {
		return
	}
	w.sendUserSignal(target)
}

// SignalCount returns the cumulative number of user signals received from
// src.
func (w *Window) SignalCount(src int) int64 {
	if w.checkTarget(src, "SignalCount source"); w.user == nil {
		return 0
	}
	return w.user.Peek(src).in
}

// WaitSignal waits until at least count user signals from src have been
// observed in the local replica. A window abort or a fabric declaration
// that src is unreachable unwinds the spin with the cause instead of
// hanging forever — the dead-peer-mid-spin propagation rule: a replica that
// can no longer be written must not be waited on.
func (w *Window) WaitSignal(src int, count int64) {
	w.checkTarget(src, "WaitSignal source")
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
		w.fail(w.err)
		return
	}
	err := w.newRMAError(ErrRankUnreachable, src,
		"WaitSignal spinning on unreachable peer (observed %d of %d)", w.SignalCount(src), count)
	err.Peers = []int{src}
	w.fail(err)
}
