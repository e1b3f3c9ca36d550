package mpi

import (
	"fmt"

	"repro/internal/fabric"
)

// EagerThreshold is the message size (bytes) up to which two-sided sends use
// the eager protocol; larger messages use rendezvous (RTS/CTS/data).
const EagerThreshold = 8192

// sendOp tracks one in-flight rendezvous send.
type sendOp struct {
	req  *Request
	data []byte
	size int64
	tag  int
}

// recvOp tracks one posted receive.
type recvOp struct {
	req     *Request
	src     int
	tag     int
	claimed bool // an RTS has been matched to this receive (CTS sent)
}

// Isend starts a nonblocking send of size bytes (data may be nil when only
// the traffic shape matters) and returns its request.
func (r *Rank) Isend(dst, tag int, data []byte, size int64) *Request {
	if !r.ChargeCall() {
		return nil
	}
	if size < 0 {
		panic("mpi: negative send size")
	}
	if data != nil && int64(len(data)) > size {
		panic(fmt.Sprintf("mpi: send data (%d bytes) exceeds declared size %d", len(data), size))
	}
	req := NewRequest(r)
	if size <= EagerThreshold {
		r.world.Net.Send(&fabric.Packet{
			Src: r.ID, Dst: dst, Kind: fabric.KindEager, Size: size,
			Payload: data, Arg: [4]int64{int64(tag), 0, size, 0},
		})
		// Eager sends buffer locally: complete at injection.
		req.Complete()
		return req
	}
	id := r.nextSendID
	r.nextSendID++
	if r.sendOps == nil {
		r.sendOps = make(map[int64]*sendOp)
	}
	r.sendOps[id] = &sendOp{req: req, data: data, size: size, tag: tag}
	r.world.Net.Send(&fabric.Packet{
		Src: r.ID, Dst: dst, Kind: fabric.KindRTS, Size: 16,
		Arg: [4]int64{int64(tag), id, size, 0},
	})
	return req
}

// Irecv posts a nonblocking receive for a message from src with tag.
func (r *Rank) Irecv(src, tag int) *Request {
	if !r.ChargeCall() {
		return nil
	}
	req := NewRequest(r)
	r.posted = append(r.posted, req)
	req.recv = &recvOp{req: req, src: src, tag: tag}
	return req
}

// SendMsg is the blocking send: Isend, then a wait for its request.
func (r *Rank) SendMsg(dst, tag int, data []byte, size int64) {
	r.IssueWait(func() *Request { return r.Isend(dst, tag, data, size) })
}

// RecvMsg is the blocking receive: Irecv, then a wait for its request. It
// returns the received payload (nil for shape-only traffic, and while the
// call is pending).
func (r *Rank) RecvMsg(src, tag int) []byte {
	if req := r.IssueWait(func() *Request { return r.Irecv(src, tag) }); req != nil {
		return req.data
	}
	return nil
}

// progressTwoSided is the CPU part of the two-sided engine: it matches
// arrived protocol packets against posted receives and advances rendezvous
// state machines. Matching is FIFO both in arrival order and post order.
func (r *Rank) progressTwoSided() {
	if len(r.inbox) == 0 {
		return
	}
	// Filter in place, on a detached slice: a handler that completes a
	// request runs its hooks, and anything delivered from inside one must
	// queue behind the packets kept here, not into the array being compacted.
	in := r.inbox
	r.inbox = nil
	keep := in[:0]
	for _, p := range in {
		if !r.handleTwoSided(p) {
			keep = append(keep, p)
		}
	}
	clear(in[len(keep):]) // handled packets must not stay reachable
	r.inbox = append(keep, r.inbox...)
}

// handleTwoSided processes one packet; it reports false when the packet
// must stay queued (no matching receive posted yet).
func (r *Rank) handleTwoSided(p *fabric.Packet) bool {
	switch p.Kind {
	case fabric.KindEager:
		op := r.matchRecv(p.Src, int(p.Arg[0]))
		if op == nil {
			return false
		}
		var data []byte
		if p.Payload != nil {
			data = p.Payload.([]byte)
		}
		op.req.data = data
		r.unpost(op.req)
		op.req.Complete()
		return true
	case fabric.KindRTS:
		op := r.matchRecv(p.Src, int(p.Arg[0]))
		if op == nil {
			return false
		}
		op.claimed = true
		r.world.Net.Send(&fabric.Packet{
			Src: r.ID, Dst: p.Src, Kind: fabric.KindCTS, Size: 16,
			Arg: [4]int64{p.Arg[0], p.Arg[1], 0, 0},
		})
		return true
	case fabric.KindCTS:
		id := p.Arg[1]
		op := r.sendOps[id]
		if op == nil {
			panic(fmt.Sprintf("mpi: rank %d got CTS for unknown send %d", r.ID, id))
		}
		pkt := &fabric.Packet{
			Src: r.ID, Dst: p.Src, Kind: fabric.KindRData, Size: op.size,
			Payload: op.data, Arg: [4]int64{int64(op.tag), id, op.size, 0},
		}
		// Sender-side completion: the hardware send-completion event the
		// sender NIC raises once the data left the wire. It runs at the
		// sender (r is the CTS's destination — the sender), so on a sharded
		// world no remote rank's state is ever touched.
		pkt.OnTxDone = func(*fabric.Packet) {
			if sop := r.sendOps[id]; sop != nil {
				delete(r.sendOps, id)
				sop.req.Complete()
			}
		}
		r.world.Net.Send(pkt)
		return true
	case fabric.KindRData:
		// The receive matched at RTS time; find the claimed receive.
		op := r.matchClaimed(p.Src, int(p.Arg[0]))
		if op == nil {
			panic(fmt.Sprintf("mpi: rank %d got rendezvous data with no claimed receive (src=%d tag=%d)", r.ID, p.Src, p.Arg[0]))
		}
		if p.Payload != nil {
			op.req.data = p.Payload.([]byte)
		}
		r.unpost(op.req)
		op.req.Complete()
		return true
	}
	panic(fmt.Sprintf("mpi: unexpected two-sided packet kind %d", p.Kind))
}

// matchRecv finds the oldest posted unclaimed receive matching (src, tag).
func (r *Rank) matchRecv(src, tag int) *recvOp {
	for _, req := range r.posted {
		op := req.recv
		if !op.claimed && op.src == src && op.tag == tag {
			return op
		}
	}
	return nil
}

// matchClaimed finds the oldest claimed receive matching (src, tag).
func (r *Rank) matchClaimed(src, tag int) *recvOp {
	for _, req := range r.posted {
		op := req.recv
		if op.claimed && op.src == src && op.tag == tag {
			return op
		}
	}
	return nil
}

// unpost removes a completed receive from the posted list.
func (r *Rank) unpost(req *Request) {
	for i, q := range r.posted {
		if q == req {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return
		}
	}
}
