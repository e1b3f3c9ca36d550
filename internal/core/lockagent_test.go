package core

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/peertab"
)

// agentHarness builds a window whose lock agent can be driven directly
// (grants to self are applied inline, so no simulation run is needed).
func agentHarness(t *testing.T, n int) *Window {
	t.Helper()
	w := mpi.NewWorld(1, fabric.DefaultConfig())
	rt := NewRuntime(w)
	eng := &rt.engines[0]
	win := &Window{
		rank:  w.Rank(0),
		eng:   eng,
		id:    0,
		impl:  newMode{},
		rules: &modes[ModeNew],
		n:     n,
		peers: peertab.New[peerCounters](n),
	}
	win.agent = lockAgent{w: win, exclHolder: -1}
	eng.windows = append(eng.windows, win)
	eng.winList = append(eng.winList, win)
	return win
}

// Note: grants from the agent go through eng.control, which for self
// (rank 0) applies inline and for other ranks would hit the network; in
// these tests all "origins" are fake rank ids >= 1 on a 1-rank world, so
// we stub the grant path by reading the agent's counters directly instead.
// To keep the agent pure we drive it through a thin shim.

type agentModel struct {
	excl    int
	shared  map[int]int
	queue   []lockWaiter
	granted []int // order of grants
}

func newAgentModel() *agentModel {
	return &agentModel{excl: -1, shared: map[int]int{}}
}

func (m *agentModel) request(o int, shared bool) {
	m.queue = append(m.queue, lockWaiter{origin: o, shared: shared})
	m.advance()
}

func (m *agentModel) unlock(o int) {
	if m.excl == o {
		m.excl = -1
	} else {
		m.shared[o]--
		if m.shared[o] == 0 {
			delete(m.shared, o)
		}
	}
	m.advance()
}

func (m *agentModel) sharedCount() int {
	n := 0
	for _, c := range m.shared {
		n += c
	}
	return n
}

func (m *agentModel) advance() {
	for len(m.queue) > 0 {
		h := m.queue[0]
		if h.shared {
			if m.excl != -1 {
				return
			}
			m.shared[h.origin]++
		} else {
			if m.excl != -1 || m.sharedCount() > 0 {
				return
			}
			m.excl = h.origin
		}
		m.queue = m.queue[1:]
		m.granted = append(m.granted, h.origin)
	}
}

func TestLockAgentFIFOAndExclusivity(t *testing.T) {
	win := agentHarness(t, 1)
	a := win.agent
	// Self shared lock, then an exclusive request queues behind it.
	a.request(0, true)
	if excl, shared, queued := a.holders(); excl != -1 || shared != 1 || queued != 0 {
		t.Fatalf("after shared grant: excl=%d shared=%d queued=%d", excl, shared, queued)
	}
	a.request(0, false)
	if _, _, queued := a.holders(); queued != 1 {
		t.Fatal("exclusive request should queue behind a shared holder")
	}
	a.unlock(0)
	if excl, shared, _ := a.holders(); excl != 0 || shared != 0 {
		t.Fatalf("exclusive should now hold: excl=%d shared=%d", excl, shared)
	}
	a.unlock(0)
	if excl, shared, queued := a.holders(); excl != -1 || shared != 0 || queued != 0 {
		t.Fatal("lock should be free")
	}
}

func TestLockAgentSharedBatching(t *testing.T) {
	win := agentHarness(t, 1)
	a := win.agent
	a.request(0, false) // exclusive granted
	a.request(0, true)  // queued
	a.request(0, true)  // queued
	if _, _, queued := a.holders(); queued != 2 {
		t.Fatalf("queued=%d, want 2", queued)
	}
	a.unlock(0)
	// Both consecutive shared requests must be granted together.
	if excl, shared, queued := a.holders(); excl != -1 || shared != 2 || queued != 0 {
		t.Fatalf("shared batch grant failed: excl=%d shared=%d queued=%d", excl, shared, queued)
	}
}

func TestLockAgentUnlockWithoutHoldPanics(t *testing.T) {
	win := agentHarness(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unlock without hold should panic")
		}
	}()
	win.agent.unlock(0)
}

// Property: for arbitrary request/unlock scripts, the agent (modeled
// standalone) never grants an exclusive lock concurrently with any other
// holder, never exceeds outstanding grants vs requests, and grants in FIFO
// order.
func TestLockAgentSafetyProperty(t *testing.T) {
	f := func(script []uint8) bool {
		m := newAgentModel()
		outstanding := map[int]int{} // origin -> held count
		grantCursor := 0
		for _, b := range script {
			origin := int(b % 4)
			switch {
			case b%3 != 0: // request (2/3 of actions)
				m.request(origin, b%2 == 0)
			default: // unlock if that origin holds something
				held := outstanding[origin]
				_ = held
				// Recompute holders from the model before unlocking.
				if m.excl == origin || m.shared[origin] > 0 {
					m.unlock(origin)
				}
			}
			// Safety: exclusive holder excludes everyone else.
			if m.excl != -1 && m.sharedCount() > 0 {
				return false
			}
			// Grants are FIFO: granted order is a prefix-consistent
			// sequence (we only check it grows monotonically).
			if len(m.granted) < grantCursor {
				return false
			}
			grantCursor = len(m.granted)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLockAgentMirrorsModel drives the real agent and the reference model
// with the same self-lock script and compares holder states. Origin is
// always rank 0 (self) so grants stay local.
func TestLockAgentMirrorsModel(t *testing.T) {
	f := func(script []uint8) bool {
		win := agentHarness(t, 1)
		a := win.agent
		m := newAgentModel()
		for _, b := range script {
			if b%3 != 0 {
				shared := b%2 == 0
				a.request(0, shared)
				m.request(0, shared)
			} else if m.excl == 0 || m.shared[0] > 0 {
				a.unlock(0)
				m.unlock(0)
			}
			excl, shared, queued := a.holders()
			if (m.excl == 0) != (excl == 0) || m.sharedCount() != shared || len(m.queue) != queued {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
