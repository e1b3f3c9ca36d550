package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// signalHandshake runs one internode GATS handshake (Start/Put/Complete vs
// Post/Wait) and reports the target's received payload, the virtual times
// at which origin Complete and target WaitEpoch returned, and the origin's
// counters.
func signalHandshake(t *testing.T, opt WinOptions, size int64) (got []byte, completeAt, waitAt sim.Time, st counts) {
	t.Helper()
	w, rt := testWorld(t, 2)
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, size+64, opt)
		if r.ID == 0 {
			win.Start([]int{1})
			win.Put(1, 0, payload, size)
			win.Complete()
			completeAt = r.Now()
			st = win.counters()
		} else {
			win.Post([]int{0})
			win.WaitEpoch()
			waitAt = r.Now()
			got = append([]byte(nil), win.Bytes()[:size]...)
		}
		win.Quiesce()
		r.Barrier()
	})
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("target byte %d = %d, want %d", i, got[i], payload[i])
		}
	}
	return got, completeAt, waitAt, st
}

// TestSignalTransportHandshake proves the counter-signal re-expression of
// the GATS handshake: same data semantics as the typed control plane, with
// both the origin's Complete and the target's Wait strictly earlier —
// settling the put at the wire saves the remote-ack round on the origin and
// moves the done signal to wire completion for the target.
func TestSignalTransportHandshake(t *testing.T) {
	_, gatsC, gatsW, _ := signalHandshake(t, WinOptions{Mode: ModeNew}, 4096)
	_, sigC, sigW, st := signalHandshake(t,
		WinOptions{Mode: ModeNew, Transport: TransportSignal}, 4096)
	if sigC >= gatsC {
		t.Errorf("signal Complete at %dus, not below GATS %dus",
			sigC/sim.Microsecond, gatsC/sim.Microsecond)
	}
	if sigW >= gatsW {
		t.Errorf("signal Wait at %dus, not below GATS %dus",
			sigW/sim.Microsecond, gatsW/sim.Microsecond)
	}
	if st[cSignalsSent] == 0 {
		t.Error("origin sent no counter-replica writes on the signal transport")
	}
}

// TestSignalCloseSettlesWhereMPISays pins where each closing call of a
// ModeNew window returns on either transport, by reading the target's
// window memory at the instant the origin's call returns: Unlock,
// UnlockAll and Fence promise remote completion, so the put must be in
// target memory on both transports; only Complete may return at local
// (wire) completion, and on the signal transport it does, earlier than on
// the typed plane.
func TestSignalCloseSettlesWhereMPISays(t *testing.T) {
	payload := []byte("sixteen bytes!!!")
	closes := []struct {
		name  string
		local bool                                       // the close completes locally on the signal transport
		body  func(win *Window, r *mpi.Rank, put func()) // returns as the close does
	}{
		{"Unlock", false, func(win *Window, r *mpi.Rank, put func()) {
			if r.ID == 0 {
				win.Lock(1, true)
				put()
				win.Unlock(1)
			}
		}},
		{"UnlockAll", false, func(win *Window, r *mpi.Rank, put func()) {
			if r.ID == 0 {
				win.LockAll()
				put()
				win.UnlockAll()
			}
		}},
		{"Fence", false, func(win *Window, r *mpi.Rank, put func()) {
			win.Fence(AssertNoPrecede)
			if r.ID == 0 {
				put()
			}
			win.Fence(AssertNoSucceed)
		}},
		{"Complete", true, func(win *Window, r *mpi.Rank, put func()) {
			if r.ID == 0 {
				win.Start([]int{1})
				put()
				win.Complete()
			} else {
				win.Post([]int{0})
				win.WaitEpoch()
			}
		}},
	}
	for _, c := range closes {
		returned := map[Transport]sim.Time{}
		for _, tr := range []Transport{TransportGATS, TransportSignal} {
			w, rt := testWorld(t, 2)
			var landed bool
			runJob(t, w, func(r *mpi.Rank) {
				win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew, Transport: tr})
				c.body(win, r, func() { win.Put(1, 8, payload, int64(len(payload))) })
				if r.ID == 0 {
					returned[tr] = r.Now()
					landed = string(rt.engines[1].windows[win.id].Bytes()[8:24]) == string(payload)
				}
				win.Quiesce()
				r.Barrier()
			})
			if !landed && !(c.local && tr == TransportSignal) {
				t.Errorf("%s on %s returned at %d ns before the put was in target memory", c.name, tr, returned[tr])
			}
		}
		if c.local && returned[TransportSignal] >= returned[TransportGATS] {
			t.Errorf("signal Complete returned at %d ns, not before gats at %d ns",
				returned[TransportSignal], returned[TransportGATS])
		}
	}
}

// TestSignalTransportVanilla pins that vanilla mode accepts the signal wire
// representation (grants/dones as replica writes) while keeping its own
// remote-completion gating and data semantics.
func TestSignalTransportVanilla(t *testing.T) {
	signalHandshake(t, WinOptions{Mode: ModeVanilla, Transport: TransportSignal}, 2048)
}

// TestSignalBaseWraparoundInvariance is the counter-wraparound regression:
// the same program seeded with a base 3 steps below ^uint64(0) — so every
// grant/done/user counter crosses the wrap mid-run — must produce the same
// bytes, the same virtual times and the same stats as base 0.
func TestSignalBaseWraparoundInvariance(t *testing.T) {
	run := func(base uint64) string {
		w, rt := testWorld(t, 3)
		var log string
		runJob(t, w, func(r *mpi.Rank) {
			win := rt.CreateWindow(r, 512, WinOptions{
				Mode: ModeNew, Transport: TransportSignal, SignalBase: base,
			})
			// 8 pipelined epochs: counters advance well past any 3-step
			// distance to the wrap on every channel.
			for i := 0; i < 8; i++ {
				if r.ID == 0 {
					win.Start([]int{1, 2})
					win.Put(1, int64(i), []byte{byte(i + 1)}, 1)
					win.Put(2, int64(i), []byte{byte(i + 2)}, 1)
					win.Complete()
					win.Signal(1)
				} else {
					win.Post([]int{0})
					win.WaitEpoch()
				}
			}
			if r.ID == 1 {
				win.WaitSignal(0, 8)
			}
			win.Quiesce()
			r.Barrier()
			if r.ID == 1 {
				st := win.counters()
				log = fmt.Sprintf("t=%d buf=%x sig=%d recv=%d stale=%d",
					r.Now(), win.Bytes()[:8], win.SignalCount(0), st[cSignalsRecv], st[cSignalsStale])
			}
		})
		return log
	}
	zero, wrap := run(0), run(^uint64(0)-3)
	if zero != wrap {
		t.Fatalf("wraparound base changed observables:\n base 0:    %s\n near-wrap: %s", zero, wrap)
	}
	if zero == "" {
		t.Fatal("probe rank recorded nothing")
	}
}

// TestSignalStaleDiscard pins replica-write idempotence at the receive
// entry, on each counter channel: a duplicated and a reordered (older)
// KindSignal write must be discarded without advancing the counter or
// re-dispatching, with the base one step below the uint64 wrap.
func TestSignalStaleDiscard(t *testing.T) {
	w, rt := testWorld(t, 2)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{
			Mode: ModeNew, Transport: TransportSignal, SignalBase: ^uint64(0) - 1,
		})
		if r.ID == 0 {
			for ch := chGrant; ch <= chUser; ch++ {
				before := win.counters()
				for _, step := range []struct {
					v     int64
					fresh bool
				}{{3, true}, {3, false}, {1, false}, {4, true}} {
					win.dirty = false
					p := &fabric.Packet{Src: 1, Dst: 0, Kind: fabric.KindSignal, Size: sigBytes}
					p.Arg = [4]int64{win.id, int64(ch), int64(win.sigBase + uint64(step.v)), 0}
					rt.engines[0].Deliver(p)
					if win.dirty != step.fresh {
						t.Errorf("channel %d value %d: dispatched=%t, want %t", ch, step.v, win.dirty, step.fresh)
					}
				}
				if got := counterOf(win, 1, ch); got != 4 {
					t.Errorf("channel %d counter = %d, want 4", ch, got)
				}
				st := win.counters()
				if recv, stale := st[cSignalsRecv]-before[cSignalsRecv], st[cSignalsStale]-before[cSignalsStale]; recv != 2 || stale != 2 {
					t.Errorf("channel %d: recv=%d stale=%d, want 2/2", ch, recv, stale)
				}
			}
			ps := win.PeerState(1)
			if g, d := win.sigBase+uint64(ps.G), win.sigBase+uint64(ps.DoneRecv); g != 2 || d != 2 || ps.UserRecv != 4 {
				t.Errorf("PeerState = %+v (wire grant %d, done %d), want wire counters wrapped to 2 and 4 user signals", ps, g, d)
			}
		}
		win.Quiesce()
		r.Barrier()
	})
}

// TestSignalUserChannel drives Signal/WaitSignal across the three routes:
// internode replica write, intranode FIFO word, and self-application.
func TestSignalUserChannel(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.ProcsPerNode = 2 // ranks 0,1 share a node; rank 2 is internode
	w := mpi.NewWorld(3, cfg)
	rt := NewRuntime(w)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Transport: TransportSignal})
		switch r.ID {
		case 0:
			win.Signal(1) // intranode FIFO
			win.Signal(1)
			win.Signal(2) // internode replica write
			win.Signal(0) // self
			if got := win.SignalCount(0); got != 1 {
				t.Errorf("self SignalCount = %d, want 1", got)
			}
		case 1:
			win.WaitSignal(0, 2)
			if got := win.SignalCount(0); got != 2 {
				t.Errorf("rank 1 SignalCount = %d, want 2", got)
			}
		case 2:
			win.WaitSignal(0, 1)
		}
		win.Quiesce()
		r.Barrier()
	})
}

// TestSignalNoCheckLockNotify pins the lock-free passive-target variant: a
// NOCHECK lock epoch on the signal transport never touches the target's
// lock agent, and its close bumps the target's user-signal replica behind
// the epoch's data — the target synchronizes with WaitSignal alone.
func TestSignalNoCheckLockNotify(t *testing.T) {
	w, rt := testWorld(t, 2)
	payload := []byte("lock-free notify")
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 256, WinOptions{Mode: ModeNew, Transport: TransportSignal})
		if r.ID == 0 {
			win.LockAssert(1, true, true)
			win.Put(1, 32, payload, int64(len(payload)))
			win.Unlock(1)
		} else {
			win.WaitSignal(0, 1)
			if got := string(win.Bytes()[32 : 32+len(payload)]); got != string(payload) {
				t.Errorf("notify overtook data: %q", got)
			}
			if g := win.counters()[cLockGrants]; g != 0 {
				t.Errorf("lock agent served %d grants on a lock-free epoch", g)
			}
		}
		win.Quiesce()
		r.Barrier()
	})
}

// TestSignalLossyFabric runs pipelined signal-transport epochs plus user
// signals over a dup/drop/corrupt-injecting fabric: the reliability
// sublayer retransmits and the counter algebra absorbs anything that slips
// through, so data and signal counts must come out exact.
func TestSignalLossyFabric(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fp := fabric.DefaultFaultProfile(seed)
		fp.Drop = 0.08
		fp.Dup = 0.08
		fp.Corrupt = 0.04
		fp.Jitter = 20 * sim.Microsecond
		w, rt := faultyWorld(t, 2, fp)
		var retries int64
		runJob(t, w, func(r *mpi.Rank) {
			win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew, Transport: TransportSignal})
			for i := 0; i < 6; i++ {
				if r.ID == 0 {
					win.Start([]int{1})
					win.Put(1, int64(i), []byte{byte(0xa0 + i)}, 1)
					win.Complete()
					win.Signal(1)
				} else {
					win.Post([]int{0})
					win.WaitEpoch()
				}
			}
			if r.ID == 1 {
				win.WaitSignal(0, 6)
				for i := 0; i < 6; i++ {
					if win.Bytes()[i] != byte(0xa0+i) {
						t.Errorf("seed %d: byte %d = %x, want %x", seed, i, win.Bytes()[i], 0xa0+i)
					}
				}
				retries = win.counters()[fabRetransmits]
			}
			win.Quiesce()
			r.Barrier()
		})
		if retries == 0 {
			t.Errorf("seed %d: adversary never forced a retransmit; test proves nothing", seed)
		}
	}
}

// TestSignalDeadPeerMidSpin pins the failure-propagation rule: a WaitSignal
// spin on a peer the fabric declares unreachable must unwind with
// ErrRankUnreachable instead of spinning on a replica nobody can write.
func TestSignalDeadPeerMidSpin(t *testing.T) {
	fp := fabric.DefaultFaultProfile(1)
	fp.Deaths = []fabric.RankDeath{{Rank: 1, At: 200 * sim.Microsecond}}
	fp.DetectDelay = 250 * sim.Microsecond // declared while the wait below is blocked
	w, rt := faultyWorld(t, 2, fp)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew, Transport: TransportSignal})
		if r.ID != 0 {
			return // rank 1 goes silent before ever signaling
		}
		// Spin on the peer after it went silent: no epoch exists to fail the
		// wait, so only the failure detector's declaration can end it.
		r.Compute(300 * sim.Microsecond)
		win.Signal(1)
		win.WaitSignal(1, 1)
		t.Error("WaitSignal returned without the peer ever signaling")
	})
	var rma *RMAError
	if !errors.As(err, &rma) {
		t.Fatalf("error %v does not unwrap to *RMAError", err)
	}
	if rma.Class != ErrRankUnreachable || rma.Peer != 1 {
		t.Fatalf("got class=%v peer=%d, want ERR_RANK_UNREACHABLE toward 1 (%v)", rma.Class, rma.Peer, err)
	}
}

// script is a rank program for tests, one call per entry: a call that
// returns pending is repeated at the rank's next Step, so the same script
// runs on a task rank and, in a single Step, on a goroutine rank.
type script struct {
	r     *mpi.Rank
	calls []func()
	next  int
}

func (s *script) Step(p *sim.Proc) {
	for ; s.next < len(s.calls); s.next++ {
		if s.calls[s.next](); s.r.Pending() {
			return
		}
	}
	p.TaskExit()
}

// runForm runs program on every rank of w as task ranks (tasks=true) or as
// goroutine ranks, where one Step runs the whole script.
func runForm(w *mpi.World, rt *Runtime, tasks bool, program func(rt *Runtime, r *mpi.Rank) []func()) error {
	return w.RunProgram(func(r *mpi.Rank) sim.Task { return &script{r: r, calls: program(rt, r)} }, tasks)
}

// sweepCounter is a rank's RMA engine that counts its progress sweeps.
type sweepCounter struct {
	*Engine
	sweeps *int
}

func (c *sweepCounter) Progress() {
	*c.sweeps++
	c.Engine.Progress()
}

// runForms runs program on every rank of a fresh n-rank world, once on
// goroutine ranks and once on task ranks, and requires the two executions to
// agree on the end time, the event count and every rank's MPI time and
// number of progress sweeps — a resumed call that re-sweeps a wait it had
// already passed differs in the last.
func runForms(t *testing.T, n int, program func(rt *Runtime, r *mpi.Rank) []func()) {
	t.Helper()
	type outcome struct {
		end    sim.Time
		events uint64
		inMPI  []sim.Time
		sweeps []int
	}
	run := func(tasks bool) outcome {
		w, rt := testWorld(t, n)
		o := outcome{sweeps: make([]int, n)}
		for i := 0; i < n; i++ {
			w.Rank(i).SetRMA(&sweepCounter{&rt.engines[i], &o.sweeps[i]})
		}
		if err := runForm(w, rt, tasks, program); err != nil {
			t.Fatalf("tasks=%t: simulation failed: %v", tasks, err)
		}
		o.end, o.events = w.K.Now(), w.Events()
		for i := 0; i < n; i++ {
			o.inMPI = append(o.inMPI, w.Rank(i).TimeInMPI)
		}
		return o
	}
	if gor, task := run(false), run(true); !reflect.DeepEqual(gor, task) {
		t.Fatalf("execution forms diverge:\n goroutine %+v\n task      %+v", gor, task)
	}
}

// TestSignalBothForms runs the user-signal pair as a goroutine-rank and as a
// task-rank program: Signal and WaitSignal are one definition each, so the
// waiter observes both signals — and the world ends at the same virtual
// time, after the same events — either way.
func TestSignalBothForms(t *testing.T) {
	runForms(t, 2, func(rt *Runtime, r *mpi.Rank) []func() {
		var win *Window
		calls := []func(){
			func() { win = rt.CreateWindow(r, 64, WinOptions{Transport: TransportSignal}) },
		}
		if r.ID == 0 {
			calls = append(calls,
				func() { win.Signal(1) },
				func() { win.Signal(1) })
		} else {
			calls = append(calls,
				func() { win.WaitSignal(0, 2) },
				func() {
					if got := win.SignalCount(0); got != 2 {
						t.Errorf("SignalCount = %d, want 2", got)
					}
				})
		}
		return append(calls,
			func() { win.Quiesce() },
			func() { r.Barrier() })
	})
}
