package core

import "repro/internal/mpi"

// FenceAssert carries the MPI_WIN_FENCE assertion hints.
type FenceAssert int

// Fence assertions. AssertNoSucceed tells the fence not to open a new
// epoch (the last fence of a sequence); AssertNoPrecede asserts the fence
// closes no RMA (a pure opening fence) and is accepted as a hint.
const (
	AssertNone      FenceAssert = 0
	AssertNoPrecede FenceAssert = 1 << iota
	AssertNoSucceed
)

// IFence is the nonblocking fence (Section V). It closes the currently
// open fence epoch (if any) and opens a new one (unless AssertNoSucceed),
// returning a request that completes when the closed epoch's barrier
// semantics are fulfilled — i.e. when this rank's transfers are done and
// every peer's completion notification has arrived. Per Section VI rule 5,
// the new epoch is internally delayed until then, but the call itself
// never blocks. The close and the open each pay a call overhead; the repeat
// of a call pending in the open's finds the closed epoch in the call state.
func (w *Window) IFence(assert FenceAssert) *mpi.Request {
	w.checkAssert(assert)
	w.allow(EpochFence, true, false)
	c := &w.eng.call
	closed := c.fence
	c.fence = nil
	if c.ep == nil { // not pending in the open (openEpoch holds its epoch there)
		if closed = w.curFence; closed != nil {
			if w.closeAccessEpoch(closed); w.rank.Pending() {
				return nil
			}
			w.curFence = nil
		}
	}
	if assert&AssertNoSucceed == 0 && w.openEpoch(w.newFenceEpoch) == nil {
		if w.rank.Pending() {
			c.fence = closed
		}
		return nil
	}
	if closed == nil {
		return mpi.NewCompletedRequest(w.rank)
	}
	return &closed.closeReq
}

// Fence is the blocking MPI_WIN_FENCE.
func (w *Window) Fence(assert FenceAssert) {
	w.checkAssert(assert)
	w.allow(EpochFence, false, false)
	w.impl.fence(w, assert)
}

// checkAssert raises unless a holds only fence assertion bits (MPI_ERR_ASSERT).
func (w *Window) checkAssert(a FenceAssert) {
	if a&^(AssertNoPrecede|AssertNoSucceed) != 0 {
		w.raisef("fence assertion %d has bits outside AssertNoPrecede|AssertNoSucceed", a)
	}
}

func (newMode) fence(w *Window, assert FenceAssert) {
	w.waitSync(func() *mpi.Request { return w.IFence(assert) })
}

// newFenceEpoch creates a fence epoch and registers it as application-open.
// Fence epochs play both roles at once: they are access epochs toward every
// peer and exposure epochs from every peer; closing one therefore entails
// barrier semantics (completion needs all peers' done packets).
func (w *Window) newFenceEpoch() *Epoch {
	ep := newEpoch(w, EpochFence)
	w.curFence = ep
	w.openAccess = append(w.openAccess, ep)
	return ep
}
