package mpi

import "repro/internal/fabric"

// Message probing: inspect pending two-sided traffic without receiving it.

// Iprobe drives progress once and reports whether a message from src with
// tag is available to receive (either an eager payload or a rendezvous
// announcement), along with its size.
func (r *Rank) Iprobe(src, tag int) (ok bool, size int64) {
	r.ChargeCall()
	r.Progress()
	return r.probe(src, tag)
}

// Probe blocks until a message from src with tag is available and returns
// its size.
func (r *Rank) Probe(src, tag int) int64 {
	r.ChargeCall()
	var size int64
	r.WaitUntil("probe", func() bool {
		ok, s := r.probe(src, tag)
		size = s
		return ok
	})
	return size
}

// probe scans arrived-but-unmatched protocol packets.
func (r *Rank) probe(src, tag int) (bool, int64) {
	for _, p := range r.inbox {
		if p.Src != src || int(p.Arg[0]) != tag {
			continue
		}
		if p.Kind == fabric.KindEager || p.Kind == fabric.KindRTS {
			return true, p.Arg[2]
		}
	}
	return false, 0
}
