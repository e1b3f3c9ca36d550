package bench

import (
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FigSignal: the counter-signal transport headline — GATS epoch open/close
// latency against the counter-signal transport across message sizes and NIC
// rail counts. One origin runs Start / Put / Complete against one posted
// target, and the reported value is the origin's full epoch latency.
//
// Two effects stack:
//
//   - Small messages: the signal transport completes the access epoch at
//     local (wire) completion — the done rides as a one-sided counter write
//     behind the data instead of waiting a remote acknowledgment round — so
//     the epoch closes roughly an alpha+ack earlier than GATS at every size.
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
			return signalCell(SweepSizes[row], vs[col].tr, vs[col].channels, iters)
		})
}

// signalCell measures one (size, transport, rails) point: the mean origin
// latency of a Start / Put(size) / Complete epoch against a posted target.
func signalCell(size int64, tr core.Transport, channels, iters int) float64 {
	cfg := Config()
	cfg.Channels = channels
	var lat []sim.Time
	runWorld(2, cfg, func(r *mpi.Rank, rt *core.Runtime) {
		win := rt.CreateWindow(r, size, core.WinOptions{Mode: core.ModeNew, ShapeOnly: true, Transport: tr})
		for it := 0; it < iters; it++ {
			r.Barrier()
			switch r.ID {
			case 0:
				win.Post([]int{1})
				win.WaitEpoch()
			case 1:
				t0 := r.Now()
				win.Start([]int{0})
				win.Put(0, 0, nil, size)
				win.Complete()
				lat = append(lat, r.Now()-t0)
			}
		}
		win.Quiesce()
	})
	return mean(lat)
}
