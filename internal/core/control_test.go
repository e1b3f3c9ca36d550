package core

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// counterOf reads the receive-side counter of one cumulative channel.
func counterOf(w *Window, src int, ch channel) int64 {
	switch ch {
	case chGrant:
		return w.peer(src).g
	case chDone:
		return w.peer(src).doneRecv
	}
	return w.SignalCount(src)
}

// FuzzControlCodec checks the control plane's two wire formats and its
// counter merge against a model: for any transport, channel, value and
// SignalBase, decode inverts encode; and a stream of fresh, duplicated and
// reordered counts pushed through decode and apply leaves the counter at the
// stream's maximum, with every replica write accounted received or stale.
func FuzzControlCodec(f *testing.F) {
	for _, base := range []uint64{0, ^uint64(0), ^uint64(0) - 3} {
		f.Add(true, uint8(chGrant), int64(5), base, []byte{3, 3, 1, 4})
		f.Add(true, uint8(chUser), int64(1)<<40, base, []byte{1, 2, 2, 9, 0})
		f.Add(false, uint8(chDone), int64(7), base, []byte{2, 1, 2})
		f.Add(false, uint8(chLockReq), int64(1), base, []byte{})
	}
	f.Fuzz(func(t *testing.T, signal bool, chRaw uint8, value int64, base uint64, stream []byte) {
		ch := channel(chRaw) % chCount
		opt := WinOptions{SignalBase: base}
		if signal {
			opt.Transport = TransportSignal
		}
		w, rt := testWorld(t, 2)
		runJob(t, w, func(r *mpi.Rank) {
			win := rt.CreateWindow(r, 8, opt)
			defer func() {
				win.Quiesce()
				r.Barrier()
			}()
			if r.ID != 0 {
				return
			}
			// One packet as rank 0 would send it to rank 1 and, the window
			// being symmetric, as rank 1's would decode it.
			wire := func(v int64) (channel, int64) {
				p := &fabric.Packet{Src: 1, Dst: 1}
				win.encode(p, ch, v)
				kind, size := typedKind[ch], int64(typedBytes)
				if win.signalled(1, ch) {
					kind, size = fabric.KindSignal, sigBytes
				}
				if p.Kind != kind || p.Size != size {
					t.Fatalf("channel %d encoded as kind %d size %d, want %d/%d", ch, p.Kind, p.Size, kind, size)
				}
				return win.decode(p)
			}
			if gotCh, got := wire(value); gotCh != ch || got != value {
				t.Fatalf("decode(encode(%d, %d)) = (%d, %d) at base %#x", ch, value, gotCh, got, base)
			}
			if ch > chUser {
				return // commands carry no history to merge
			}
			var max, recv, stale int64
			for _, b := range stream {
				_, v := wire(int64(b))
				rt.engines[0].apply(win, 1, ch, v)
				if v > max {
					max, recv = v, recv+1
				} else {
					stale++
				}
			}
			if !win.signalled(1, ch) {
				recv, stale = 0, 0 // typed traffic is not replica-write accounted
			}
			st := win.counters()
			if got := counterOf(win, 1, ch); got != max || st[cSignalsRecv] != recv || st[cSignalsStale] != stale {
				t.Fatalf("stream %v on channel %d: counter=%d recv=%d stale=%d, model %d/%d/%d",
					stream, ch, got, st[cSignalsRecv], st[cSignalsStale], max, recv, stale)
			}
		})
	})
}

// TestControlDelivery pins that one notify reaches the same apply effect
// whichever medium carries it, and when: a self or internode notification
// is applied with no help from the receiver's CPU (inline, NIC context); a
// same-node one waits in the FIFO for the receiver's sweep, where counters
// apply in step 5 and lock commands are batched into step 6.
func TestControlDelivery(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.ProcsPerNode = 2 // ranks 0,1 share a node; rank 2 is internode
	const (
		noCPU       = iota // before the receiver makes any MPI call
		consumed           // after step 5
		lockBatched        // after step 6
		stages
	)
	// effect renders what channel ch from src has done to rank 0's window.
	effect := func(win *Window, src int, ch channel) string {
		if ch <= chUser {
			return fmt.Sprint(counterOf(win, src, ch))
		}
		excl, shared, queued := win.LockAgentState()
		return fmt.Sprintf("held=%t shared=%d queued=%d grants=%d", excl == src, shared, queued, win.eng.ctr[cLockGrants])
	}
	for _, tr := range []Transport{TransportGATS, TransportSignal} {
		for ch := chGrant; ch < chCount; ch++ {
			var final [3]string
			for src := 0; src < 3; src++ {
				w := mpi.NewWorld(3, cfg)
				rt := NewRuntime(w)
				var seen [stages]string
				runJob(t, w, func(r *mpi.Rank) {
					win := rt.CreateWindow(r, 64, WinOptions{Transport: tr})
					eng := rt.engines[r.ID]
					if r.ID == src {
						r.Compute(20 * sim.Microsecond) // rank 0 has left CreateWindow's barrier
						if ch == chUnlock {
							eng.notify(win, 0, chLockReq, 0)
						}
						eng.notify(win, 0, ch, 3)
					}
					if r.ID == 0 {
						r.Compute(200 * sim.Microsecond)
						seen[noCPU] = effect(win, src, ch)
						eng.consumeFifos()
						seen[consumed] = effect(win, src, ch)
						eng.processLockBacklog()
						seen[lockBatched] = effect(win, src, ch)
					}
					win.Quiesce()
					r.Barrier()
				})
				want := noCPU
				if src == 1 {
					want = consumed
					if ch > chUser {
						want = lockBatched
					}
				}
				final[src] = seen[lockBatched]
				for s := 0; s < stages; s++ {
					if applied := seen[s] == final[src]; applied != (s >= want) {
						t.Errorf("%v channel %d from %d: stage %d shows %q (final %q), want the effect from stage %d on",
							tr, ch, src, s, seen[s], final[src], want)
					}
				}
			}
			if final[0] != final[1] || final[1] != final[2] {
				t.Errorf("%v channel %d: effect differs by medium: self %q, same-node %q, internode %q",
					tr, ch, final[0], final[1], final[2])
			}
		}
	}
}
