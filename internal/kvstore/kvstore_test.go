package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// allModes are the three RMA modes every scenario must survive under.
var allModes = []core.Mode{core.ModeVanilla, core.ModeNew, core.ModeFlush}

// testOptions shrinks the default scenario so the full mode x shard matrix
// stays fast under -race.
func testOptions(mode core.Mode) Options {
	opt := DefaultOptions()
	opt.Mode = mode
	opt.Clients = 4
	opt.Keys = 64
	opt.OpsPerClient = 32
	return opt
}

// deathAt kills server rank 1 at the given virtual time.
func deathAt(t sim.Time) fabric.FaultProfile {
	return fabric.FaultProfile{
		Seed:   5,
		Deaths: []fabric.RankDeath{{Rank: 1, At: t}},
	}
}

func TestKVHealthyRun(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			res := Run(testOptions(mode))
			for _, v := range res.OracleViolations {
				t.Errorf("oracle: %s", v)
			}
			total := res.Opt.Clients * res.Opt.OpsPerClient
			if res.Acked != total {
				t.Errorf("healthy run: %d/%d fully acked (degraded=%d shed=%d failed=%d)",
					res.Acked, total, res.AckedDeg, res.ShedOps, res.FailedOps)
			}
			if res.WinsPoisoned != 0 || res.Retries != 0 {
				t.Errorf("healthy run poisoned %d windows, %d retries", res.WinsPoisoned, res.Retries)
			}
		})
	}
}

// The tentpole scenario: a server dies mid-run; every acknowledged write
// must survive on the remaining copies, clients must fail over to the
// replica, and the simulation must complete (no wedged waiter).
func TestKVServerDeathZeroAckedWriteLoss(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			opt := testOptions(mode)
			opt.Schedule = deathAt(400 * sim.Microsecond)
			res := Run(opt)
			for _, v := range res.OracleViolations {
				t.Errorf("oracle: %s", v)
			}
			if res.Failovers == 0 {
				t.Error("no request completed against the replica after the death")
			}
			if res.WinsPoisoned == 0 {
				t.Error("no client window was poisoned by the death (fault never bit)")
			}
			if res.Acked+res.AckedDeg == 0 {
				t.Error("nothing acknowledged at all")
			}
			// Graceful degradation, not collapse: clients keep serving after
			// the event, so the last bin still acknowledges requests.
			last := res.Bins[len(res.Bins)-1]
			if last.Acked == 0 {
				t.Errorf("final bin acknowledged nothing: %+v", last)
			}
		})
	}
}

// A link flap (delay, not death) must cause at worst latency and retries,
// never acked-write loss, and must not permanently suspect a live server
// beyond the affected client's view.
func TestKVLinkFlapDegradesGracefully(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			opt := testOptions(mode)
			// Flap the link from client rank 4 (first client) to server 0
			// for a window well under EpochTimeout: traffic is held, not
			// lost, so requests ride it out inside their deadline.
			opt.Schedule = fabric.FaultProfile{
				Seed:  11,
				Flaps: []fabric.LinkFlap{{Src: opt.Servers, Dst: 0, From: 200 * sim.Microsecond, For: 150 * sim.Microsecond}},
			}
			res := Run(opt)
			for _, v := range res.OracleViolations {
				t.Errorf("oracle: %s", v)
			}
			if res.FailedOps != 0 || res.ShedOps != 0 {
				t.Errorf("flap caused hard failures: failed=%d shed=%d", res.FailedOps, res.ShedOps)
			}
		})
	}
}

// Killing a key range's primary AND replica exhausts error budgets: the
// affected clients must shed load and report degraded mode instead of
// hanging or failing the run.
func TestKVTotalKeyLossShedsLoad(t *testing.T) {
	opt := testOptions(core.ModeNew)
	opt.ErrBudget = 1
	opt.Schedule = fabric.FaultProfile{
		Seed: 9,
		Deaths: []fabric.RankDeath{
			{Rank: 1, At: 300 * sim.Microsecond},
			{Rank: 2, At: 320 * sim.Microsecond},
		},
	}
	res := Run(opt)
	for _, v := range res.OracleViolations {
		t.Errorf("oracle: %s", v)
	}
	if res.ShedOps == 0 {
		t.Error("no load was shed with two of four servers dead")
	}
	if res.DegradedCli == 0 {
		t.Error("no client exhausted its error budget")
	}
	if res.Acked+res.AckedDeg == 0 {
		t.Error("keys on surviving servers stopped being served")
	}
}

// The scenario is a pure function of its Options: same seed, same Result;
// different seed, different traffic.
func TestKVDeterministicAcrossRuns(t *testing.T) {
	opt := testOptions(core.ModeNew)
	opt.Schedule = deathAt(400 * sim.Microsecond)
	a, b := Run(opt), Run(opt)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same options, different results:\n%s\nvs\n%s", a, b)
	}
	opt.Seed++
	c := Run(opt)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

// Bit-identical results at any shard count, including across the fault
// event — the first chaos scenario that runs on the sharded kernel.
func TestKVSerialShardedParity(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			opt := testOptions(mode)
			opt.Schedule = deathAt(400 * sim.Microsecond)
			base := Run(opt)
			base.Opt.Shards = 0
			for _, shards := range []int{2, 4} {
				o := opt
				o.Shards = shards
				res := Run(o)
				res.Opt.Shards = 0
				if fmt.Sprint(res) != fmt.Sprint(base) {
					t.Fatalf("-shards %d diverges from serial:\n%s\nvs\n%s", shards, res, base)
				}
			}
		})
	}
}

// Latency bins must show the fault: p99 around the death event exceeds the
// healthy baseline (the plot epochbench -fig kv renders).
func TestKVLatencySeriesShowsFault(t *testing.T) {
	opt := testOptions(core.ModeNew)
	opt.BinWidth = 200 * sim.Microsecond
	healthy := Run(opt)
	opt.Schedule = deathAt(400 * sim.Microsecond)
	// A slow failure detector makes the failover stall visible: requests
	// caught talking to the dead server block until the declaration.
	opt.Schedule.DetectDelay = 300 * sim.Microsecond
	faulty := Run(opt)
	maxP99 := func(r *Result) sim.Time {
		var m sim.Time
		for _, b := range r.Bins {
			if b.P99 > m {
				m = b.P99
			}
		}
		return m
	}
	if maxP99(faulty) <= maxP99(healthy) {
		t.Errorf("fault did not move p99: healthy max %v, faulty max %v",
			maxP99(healthy), maxP99(faulty))
	}
}

// percentile is nearest-rank: the element at rank ceil(p·N). Below N = 100
// p99 is the largest sample; rounding instead of taking the ceiling picked
// the second-largest for N = 51–99.
func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct{ n, p50, p99, p999 int }{
		{50, 25, 50, 50},
		{58, 29, 58, 58},
		{100, 50, 99, 100},
		{160, 80, 159, 160},
	} {
		s := make([]sim.Time, c.n)
		for i := range s {
			s[i] = sim.Time(i + 1) // rank i+1 holds value i+1
		}
		for _, pc := range []struct{ pm, want int }{{500, c.p50}, {990, c.p99}, {999, c.p999}} {
			if got := percentile(s, pc.pm); got != sim.Time(pc.want) {
				t.Errorf("N=%d: percentile(%d‰) = rank %d, want rank %d", c.n, pc.pm, got, pc.want)
			}
		}
	}
}

// A schedule of message faults alone — no death, flap, jitter or seed — is
// still a fault schedule: it must reach the fabric, not run pristine.
func TestKVMessageFaultsAtSeedZero(t *testing.T) {
	opt := testOptions(core.ModeNew)
	pristine := Run(opt)
	opt.Schedule = fabric.FaultProfile{Drop: 0.05}
	lossy := Run(opt)
	for _, v := range lossy.OracleViolations {
		t.Errorf("oracle: %s", v)
	}
	if fmt.Sprint(lossy.Bins) == fmt.Sprint(pristine.Bins) {
		t.Error("a 5% drop schedule at seed 0 left every latency bin unchanged: faults were not enabled")
	}
}

// The clients are one prog.Program each, so a run on goroutine ranks and one
// on task ranks are the same run: byte-identical Results in every mode,
// healthy, across a server death and across a link flap.
func TestKVTaskParity(t *testing.T) {
	for _, mode := range allModes {
		opt := testOptions(mode)
		for _, fault := range []struct {
			name string
			fp   fabric.FaultProfile
		}{
			{"healthy", fabric.FaultProfile{}},
			{"server-death", deathAt(400 * sim.Microsecond)},
			{"link-flap", fabric.FaultProfile{Seed: 11,
				Flaps: []fabric.LinkFlap{{Src: opt.Servers, Dst: 0, From: 200 * sim.Microsecond, For: 150 * sim.Microsecond}}}},
		} {
			t.Run(mode.String()+"/"+fault.name, func(t *testing.T) {
				o := opt
				o.Schedule = fault.fp
				goroutines, tasks := serve(o, false).String(), serve(o, true).String()
				if goroutines != tasks {
					t.Fatalf("goroutine ranks:\n%s\ntask ranks:\n%s", goroutines, tasks)
				}
			})
		}
	}
}
