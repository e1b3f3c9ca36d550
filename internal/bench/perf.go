package bench

import "time"

// KernelPerf is the wall clock of one scale cell on the serial kernel and on
// sharded kernels (the `sim.shard2_ratio` driver of benchmarks/).
type KernelPerf struct {
	ScaleSerialMs  float64
	ScaleShardedMs float64
	ScaleSpeedup   float64
}

// MeasureScaleSpeedup times one ranks-rank scale cell (the nonblocking
// series — the heaviest and the one the paper's scaling argument rests on)
// on the serial kernel and again on shardCount kernels. The two runs produce
// bit-identical figure values; only the wall clock differs, and the ratio is
// only meaningful on a multi-core host.
func (p *KernelPerf) MeasureScaleSpeedup(ranks, iters, shardCount int) {
	prev := Shards()
	defer SetShards(prev)

	SetShards(0)
	scaleCell(ranks, SeriesNewNB, 1) // warmup: pools, page cache
	start := time.Now()
	scaleCell(ranks, SeriesNewNB, iters)
	p.ScaleSerialMs = float64(time.Since(start).Microseconds()) / 1000

	SetShards(shardCount)
	scaleCell(ranks, SeriesNewNB, 1)
	start = time.Now()
	scaleCell(ranks, SeriesNewNB, iters)
	p.ScaleShardedMs = float64(time.Since(start).Microseconds()) / 1000

	if p.ScaleShardedMs > 0 {
		p.ScaleSpeedup = p.ScaleSerialMs / p.ScaleShardedMs
	}
}
