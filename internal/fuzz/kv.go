package fuzz

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// kvModes cycles the scenario's RMA mode by seed.
var kvModes = []core.Mode{core.ModeNew, core.ModeVanilla, core.ModeFlush}

// KVOptions derives seed's chaos scenario. Deaths and flaps are sized so a
// correct stack always completes: at most one server dies (its key range
// keeps a live replica), flaps stay well under the epoch timeout, and the
// per-op deadline leaves room for the full retry ladder.
func KVOptions(seed uint64) kvstore.Options {
	opt := kvstore.DefaultOptions()
	opt.Seed = seed
	// Splitmix-style mixing; must not correlate with the client RNG streams
	// kvstore derives from Seed itself.
	mix := (seed + 0x5e11_ed_cafe) * 0x9e3779b97f4a7c15
	mix ^= mix >> 33
	opt.Mode = kvModes[mix%3]
	opt.Servers = 2 + int((mix>>2)%3) // 2..4
	opt.Clients = 2 + int((mix>>4)%4) // 2..5
	opt.Keys = 32 << ((mix >> 7) % 2) // 32 or 64
	opt.OpsPerClient = 24 + 8*int((mix>>9)%3)
	opt.ReadPermille = 300 + 100*int((mix>>11)%5)

	opt.Schedule = fabric.FaultProfile{Seed: seed}
	// One server death two thirds of the seeds; the victim's key range keeps
	// its replica alive, so acknowledged writes must survive.
	if mix>>13%3 != 0 {
		victim := int((mix >> 16) % uint64(opt.Servers))
		at := sim.Time(200+int((mix>>20)%400)) * sim.Microsecond
		opt.Schedule.Deaths = []fabric.RankDeath{{Rank: victim, At: at}}
	}
	// Half the seeds flap one client->server link for a period well under
	// the epoch timeout: traffic is held, not lost.
	if mix>>14%2 == 0 {
		opt.Schedule.Flaps = []fabric.LinkFlap{{
			Src:  opt.Servers + int((mix>>24)%uint64(opt.Clients)),
			Dst:  int((mix >> 28) % uint64(opt.Servers)),
			From: sim.Time(100+int((mix>>32)%300)) * sim.Microsecond,
			For:  sim.Time(40+int((mix>>40)%80)) * sim.Microsecond,
		}}
	}
	// A third of the seeds add deterministic per-packet jitter.
	if mix>>15%3 == 0 {
		opt.Schedule.Jitter = sim.Time(200+int((mix>>44)%800)) * sim.Nanosecond
	}
	return opt
}

// DescribeKV summarizes a seed's scenario for -v transcripts.
func DescribeKV(seed uint64) string {
	opt := KVOptions(seed)
	s := fmt.Sprintf("%d servers + %d clients, %d keys, mode %s, %d ops/client",
		opt.Servers, opt.Clients, opt.Keys, opt.Mode, opt.OpsPerClient)
	for _, d := range opt.Schedule.Deaths {
		s += fmt.Sprintf(", death r%d@%dus", d.Rank, d.At/sim.Microsecond)
	}
	for _, f := range opt.Schedule.Flaps {
		s += fmt.Sprintf(", flap %d->%d@%dus+%dus", f.Src, f.Dst, f.From/sim.Microsecond, f.For/sim.Microsecond)
	}
	if opt.Schedule.Jitter > 0 {
		s += fmt.Sprintf(", jitter %dns", opt.Schedule.Jitter)
	}
	return s
}

// checkKV is Check on the chaos KV arm (cmd/fuzz -mode kv): it runs the
// seed's replicated KV-store serving scenario — topology, traffic mix and a
// scheduled fault adversary (server deaths, link flaps, jitter), all pure
// functions of the seed (KVOptions) — and checks three things:
//
//  1. the sequential oracle holds (zero acknowledged-write loss on the
//     surviving copies, every observed value was attempted);
//  2. the run replays: executing the same Options again reproduces the
//     Result bit for bit, i.e. every retry, backoff and failover decision
//     is deterministic;
//  3. a kernel of a.Shards shards (at least 2) reproduces the serial Result
//     bit for bit, faults and failovers included.
func checkKV(seed uint64, a Arm) *Failure {
	shards := max(a.Shards, 2)
	opt := KVOptions(seed)
	var problems []string
	serial := kvstore.Run(opt)
	problems = append(problems, serial.OracleViolations...)
	if replay := kvstore.Run(opt); fmt.Sprint(replay) != fmt.Sprint(serial) {
		problems = append(problems, "replay diverged: same options produced a different result (nondeterministic retry/failover decisions)")
	}
	sh := opt
	sh.Shards = shards
	sharded := kvstore.Run(sh)
	sharded.Opt.Shards = opt.Shards
	if fmt.Sprint(sharded) != fmt.Sprint(serial) {
		problems = append(problems, fmt.Sprintf("sharded kernel (%d shards) diverged from serial:\n--- serial ---\n%s\n--- sharded ---\n%s",
			shards, serial, sharded))
	}
	if len(problems) > 0 {
		return &Failure{Seed: seed, Mode: opt.Mode, Arm: a, Problems: problems}
	}
	return nil
}
