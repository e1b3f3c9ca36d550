package fuzz

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// TestGenerateDeterministic: the same seed must yield a structurally
// identical program — reproduction depends on it.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
	}
}

// TestCampaignSmall runs a modest campaign under both modes; every program
// must satisfy every invariant.
func TestCampaignSmall(t *testing.T) {
	failures := Campaign(Options{N: 30, Seed: 1})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestFlippedReorderCaught plants a bug — inverting the reorder-legality
// predicate inside the deferred-epoch machinery — and checks that the
// activation checker detects it within 200 programs. This is the fuzzer's
// own acceptance test: a mutation in the serial-activation logic must not
// survive a campaign.
func TestFlippedReorderCaught(t *testing.T) {
	core.SetDebugFlipReorder(true)
	defer core.SetDebugFlipReorder(false)
	for seed := uint64(1); seed <= 200; seed++ {
		if f := CheckSeed(seed, core.ModeNew); f != nil {
			t.Logf("flipped canReorder caught at seed %d:\n%s", seed, f)
			return
		}
	}
	t.Fatal("flipped canReorder survived 200 programs undetected")
}

// TestActivationOrderWithinOneNanosecond feeds the span check a successor
// that activates one ordinal before its never-activated predecessor
// completes, all in the same nanosecond: the times tie, and only the
// window's ordinals show the queue order was violated. With the completion
// one ordinal earlier the same spans are legal.
func TestActivationOrderWithinOneNanosecond(t *testing.T) {
	p := &Program{Windows: []WindowSpec{{}}}
	const at = 5 * sim.Microsecond
	spans := []trace.Span{
		{Class: trace.ClassAccess, Epoch: 0, Open: at, Activate: trace.Unset, Complete: at, EndOrd: 2},
		{Class: trace.ClassAccess, Epoch: 1, Open: at, Activate: at, ActOrd: 1, Complete: trace.Unset},
	}
	problems := checkSpans(p, core.ModeNew, spans)
	if len(problems) != 1 || !strings.Contains(problems[0], "queue order violated") {
		t.Fatalf("problems %q, want one queue order violation", problems)
	}
	spans[0].EndOrd = 0
	if problems := checkSpans(p, core.ModeNew, spans); len(problems) != 0 {
		t.Fatalf("completion before the activation flagged: %q", problems)
	}
}

// TestRetiredOpsPoisoned runs six fuzz arms with op and epoch recycling
// replaced by poisoning: a retired op loses its epoch, class and target, and
// a freed epoch its window, with a closing request that panics on Wait and
// OnComplete, instead of going back to the window's free lists, so anything
// that still touches either after it was freed crashes or trips an
// invariant. Every arm must stay clean — the check that retire and recycle
// free an object only once nothing can reach it.
func TestRetiredOpsPoisoned(t *testing.T) {
	core.SetDebugPoisonRetired(true)
	defer core.SetDebugPoisonRetired(false)
	const n = 50
	for _, arm := range []struct {
		name string
		run  func() []Failure
	}{
		{"plain", func() []Failure { return Campaign(Options{N: n, Seed: 1}) }},
		{"lossy", func() []Failure { return Campaign(Options{N: n, Seed: 1, Lossy: true}) }},
		{"fattree", func() []Failure { return Campaign(Options{N: n, Seed: 1, Topo: topo.FatTree}) }},
		{"signal", func() []Failure { return Campaign(Options{N: n, Seed: 1, Signal: true}) }},
		{"flush", func() []Failure { return Campaign(Options{N: n, Seed: 1, Modes: []core.Mode{core.ModeFlush}}) }},
		{"kv", func() []Failure { return KVCampaign(Options{N: n, Seed: 1}) }},
	} {
		for _, f := range arm.run() {
			t.Errorf("%s arm: %s", arm.name, f)
		}
	}
}

// TestLossyCampaign is the ISSUE's acceptance campaign: 200 seeds over a
// fabric injecting drops, duplicates, corruption, jitter and link flaps.
// The reliability sublayer must repair every fault, so the sequential-
// memory oracle and all epoch/counter invariants hold exactly as on a
// pristine network.
func TestLossyCampaign(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 25
	}
	failures := Campaign(Options{N: n, Seed: 1, Lossy: true, Modes: []core.Mode{core.ModeNew}})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestLossyVanillaCampaign gives the blocking reference design the same
// adversary: the sublayer sits below both stacks.
func TestLossyVanillaCampaign(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	failures := Campaign(Options{N: n, Seed: 1000, Lossy: true, Modes: []core.Mode{core.ModeVanilla}})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestLossyReplayDeterminism: a lossy execution is a pure function of the
// seed — byte-identical memory and an identical kernel event count on
// replay. This is what makes a lossy fuzz failure reproducible.
func TestLossyReplayDeterminism(t *testing.T) {
	for seed := uint64(3); seed <= 5; seed++ {
		p := Generate(seed)
		fp := LossyProfile(seed, p.NRanks)
		a := ExecuteWith(p, core.ModeNew, ExecOptions{Faults: &fp})
		b := ExecuteWith(p, core.ModeNew, ExecOptions{Faults: &fp})
		if a.Err != nil || b.Err != nil {
			t.Fatalf("seed %d: lossy runs failed: %v / %v", seed, a.Err, b.Err)
		}
		if a.KernelEvents != b.KernelEvents {
			t.Fatalf("seed %d: kernel event counts diverge: %d vs %d",
				seed, a.KernelEvents, b.KernelEvents)
		}
		if !reflect.DeepEqual(a.Mems, b.Mems) {
			t.Fatalf("seed %d: final memories diverge across identical lossy runs", seed)
		}
	}
}

// TestLossyActuallyInjects guards against the campaign silently running
// lossless, one fault class at a time: over CI's lossy corpus (seeds 1-200,
// both modes) every class must fire and be repaired — copies lost,
// duplicates, corruptions and go-back-N gaps dropped at the receiver,
// retransmits, flap holds. EXPERIMENTS quotes the logged counts.
func TestLossyActuallyInjects(t *testing.T) {
	n := uint64(200)
	if testing.Short() {
		n = 40
	}
	classes := map[string]string{"lost": "fabric.drops", "duplicate-dropped": "fabric.dup_drops",
		"corrupt-dropped": "fabric.corrupt_drops", "gap-dropped": "fabric.gap_drops",
		"retransmitted": "fabric.retransmits", "held": "fabric.delayed"}
	sum := map[string]int64{}
	var lossyRuns, heldRuns int
	for seed := uint64(1); seed <= n; seed++ {
		p := Generate(seed)
		fp := LossyProfile(seed, p.NRanks)
		for _, mode := range BothModes {
			res := ExecuteWith(p, mode, ExecOptions{Faults: &fp})
			if res.Err != nil {
				t.Fatalf("seed %d mode %s: %v", seed, mode, res.Err)
			}
			for _, name := range classes {
				sum[name] += total(res.Counters, name)
			}
			if total(res.Counters, "fabric.drops")+total(res.Counters, "fabric.corrupt_drops") > 0 {
				lossyRuns++
			}
			if total(res.Counters, "fabric.delayed") > 0 {
				heldRuns++
			}
		}
	}
	t.Logf("seeds 1-%d x %d modes: lost=%d dup-dropped=%d corrupt-dropped=%d gap-dropped=%d retransmitted=%d held=%d; runs losing or corrupting a packet=%d, runs with a held departure=%d",
		n, len(BothModes), sum["fabric.drops"], sum["fabric.dup_drops"], sum["fabric.corrupt_drops"], sum["fabric.gap_drops"],
		sum["fabric.retransmits"], sum["fabric.delayed"], lossyRuns, heldRuns)
	for class, name := range classes {
		if count := sum[name]; count == 0 {
			t.Errorf("fault class %q never fired over %d lossy seeds — profile or adversary is inert", class, n)
		}
	}
}

// TestEventBudgetHeadroom: the watchdog budget must sit far above what
// healthy programs actually consume, or slow-but-correct programs would be
// reported as livelocked.
func TestEventBudgetHeadroom(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p := Generate(seed)
		for _, mode := range BothModes {
			res := Execute(p, mode)
			if res.Err != nil {
				t.Fatalf("seed %d mode %s: %v", seed, mode, res.Err)
			}
			if budget := eventBudget(p, false, topo.Crossbar); res.KernelEvents*10 > budget {
				t.Errorf("seed %d mode %s: used %d kernel events, budget %d gives <10x headroom",
					seed, mode, res.KernelEvents, budget)
			}
		}
	}
}

// TestGenerateFlushDeterministic mirrors TestGenerateDeterministic for the
// flush-mode generator, and pins that it only emits round kinds the
// epochless design supports.
func TestGenerateFlushDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		a, b := GenerateFlush(seed), GenerateFlush(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: GenerateFlush is not deterministic", seed)
		}
		for _, ws := range a.Windows {
			if !ws.Passive {
				t.Fatalf("seed %d: flush program generated an active-family window", seed)
			}
		}
		for i, rd := range a.Rounds {
			if rd.Kind != RLock && rd.Kind != RLockAll && rd.Kind != RFlush {
				t.Fatalf("seed %d round %d: kind %d not supported by flush mode", seed, i, rd.Kind)
			}
		}
	}
}

// TestFlushCampaign runs the ModeFlush arm: epochless lock/lock_all/flush
// programs against the sequential oracle plus the flush-specific end-state
// checks (scalable-lock counters all zero, no epochs ever opened).
func TestFlushCampaign(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	failures := Campaign(Options{N: n, Seed: 1, Modes: []core.Mode{core.ModeFlush}})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestFlushLossyCampaign gives the flush family the lossy adversary: the
// go-back-N sublayer repairs every drop/dup/corruption, so flush counters
// must stay dup-idempotent and the oracle exact.
func TestFlushLossyCampaign(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	failures := Campaign(Options{N: n, Seed: 500, Lossy: true, Modes: []core.Mode{core.ModeFlush}})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestFlushShardIdentity: a flush-mode run on the sharded kernel must be
// bit-identical to serial — same kernel event count, same trace length,
// same final memories.
func TestFlushShardIdentity(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := GenerateFlush(seed)
		a := Execute(p, core.ModeFlush)
		b := ExecuteWith(p, core.ModeFlush, ExecOptions{Shards: 4})
		if a.Err != nil || b.Err != nil {
			t.Fatalf("seed %d: %v / %v", seed, a.Err, b.Err)
		}
		if a.KernelEvents != b.KernelEvents {
			t.Errorf("seed %d: kernel events diverge serial=%d sharded=%d",
				seed, a.KernelEvents, b.KernelEvents)
		}
		if !reflect.DeepEqual(a.Mems, b.Mems) {
			t.Errorf("seed %d: final memories diverge across shard counts", seed)
		}
	}
}

// TestFetchedCorruptionCaught corrupts what a clean run fetched — one byte a
// Get returned from beyond the accumulate region, and one CAS result — and
// expects Verify to report each: fetched values are checked, not just
// recorded.
func TestFetchedCorruptionCaught(t *testing.T) {
	caught := map[OpKind]bool{}
	for seed := uint64(1); seed <= 50 && len(caught) < 2; seed++ {
		p := Generate(seed)
		res := Execute(p, core.ModeNew)
		if v := Verify(p, core.ModeNew, res); len(v) != 0 {
			t.Fatalf("seed %d is not clean: %v", seed, v)
		}
		cas := casWrites(p)
		for r := 0; r < p.NRanks; r++ {
			pairFetched(p, core.ModeNew, r, res.Fetched[r], func(c prog.Call, o *OpSpec, b []byte) {
				if caught[o.Kind] || o.Kind != OpGet && o.Kind != OpCAS {
					return
				}
				i, v := 0, byte(1) // a CAS must return 0: any set bit is wrong
				if o.Kind == OpGet {
					i = -1 // the first byte outside the accumulate region
					for j := range b {
						if w, ok := writtenByte(p, cas, int(c.Win), o.Target, o.Off+int64(j)); ok {
							if i, v = j, w^0x80; v == 0 {
								v = 1
							}
							break
						}
					}
					if i < 0 {
						return
					}
				}
				old := b[i]
				b[i] = v
				name := map[OpKind]string{OpGet: "Get", OpCAS: "CAS"}[o.Kind]
				if got := strings.Join(Verify(p, core.ModeNew, res), "\n"); !strings.Contains(got, name+" win") {
					t.Errorf("seed %d rank %d: byte %d of a %s result set to %#02x, Verify said %q", seed, r, i, name, v, got)
				}
				b[i] = old
				caught[o.Kind] = true
			})
		}
	}
	if !caught[OpGet] || !caught[OpCAS] {
		t.Fatalf("50 seeds held no checkable Get and CAS (found %v)", caught)
	}
}
