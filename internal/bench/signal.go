package bench

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// FigSignal: the counter-signal transport headline — GATS epoch open/close
// latency against the counter-signal transport across message sizes and NIC
// rail counts. One origin runs Start / Put / Complete against one posted
// target, and the reported value is the origin's full epoch latency.
//
// Two effects stack:
//
//   - Small messages: a Start epoch's put settles at local (wire)
//     completion on the signal transport (unlock and fence still wait for
//     the remote ack), its done riding behind the data, so Complete returns
//     roughly an alpha+ack earlier than GATS at every size.
//   - Large messages: with Channels > 1 the NIC stripes the put across its
//     data rails while signals keep the dedicated control rail, dividing the
//     wire term by the rail count.
//
// Every cell is an independent simulation; the table is bit-identical at
// any -workers or -shards count.
func FigSignal(iters int) *stats.Table {
	type variant struct {
		col      string
		tr       core.Transport
		channels int
	}
	vs := []variant{
		{"GATS", core.TransportGATS, 1},
		{"signal", core.TransportSignal, 1},
		{"signal 2 rails", core.TransportSignal, 2},
		{"signal 4 rails", core.TransportSignal, 4},
	}
	return grid("Signal: epoch open/close latency, GATS vs counter-signal transport x NIC rails", "us", "size",
		labels(SweepSizes, sizeLabel), labels(vs, func(v variant) string { return v.col }),
		func(row, col int) float64 {
			return signalCell(SweepSizes[row], vs[col].tr, vs[col].channels, iters).measure()[0]
		})
}

// signalCell is one (size, transport, rails) point: the origin samples the
// latency of a Start / Put(size) / Complete epoch against a posted target.
func signalCell(size int64, tr core.Transport, channels, iters int) pattern {
	return pattern{winSize: size, opt: core.WinOptions{Mode: core.ModeNew, Transport: tr}, channels: channels, iters: iters, lists: [][]op{
		{barrier, post(1), waitEpoch},
		{barrier, stamp, start(0), put(0, size), complete, sample(0)},
	}}
}
