package fabric

import "fmt"

// Kind tags the protocol family of a packet. The fabric itself is agnostic
// to kinds; they exist so a single per-rank delivery handler can demultiplex.
type Kind uint8

// Packet kinds used by the upper layers (internal/mpi and internal/core).
const (
	KindUser Kind = iota
	// Two-sided protocol (internal/mpi).
	KindEager   // eager two-sided payload
	KindRTS     // rendezvous ready-to-send
	KindCTS     // rendezvous clear-to-send
	KindRData   // rendezvous data
	KindBarrier // dissemination-barrier round token
	// RMA protocol (internal/core).
	KindPutData    // one-sided put payload
	KindGetReq     // get request (response produced by the target NIC)
	KindGetResp    // get response payload
	KindAccData    // accumulate payload
	KindGetAccReq  // get-accumulate / fetch-and-op request
	KindGetAccResp // fetched-value response
	KindCASReq     // compare-and-swap request
	KindCASResp    // compare-and-swap response
	KindAccRTS     // large-accumulate rendezvous request (target buffer)
	KindAccCTS     // large-accumulate clear-to-send
	KindPostNotify // exposure opened or lock granted: remote g-counter update
	KindDone       // access-epoch done packet (carries the access id)
	KindLockReq    // passive-target lock request
	KindUnlock     // lock release (ordered after the epoch's RMA)
	// foMPI-style scalable lock protocol (core.ModeFlush): conditional
	// atomic on a remote lock counter, executed in the target's NIC context.
	KindLockAtomic     // conditional fetch-and-op request on a lock counter
	KindLockAtomicResp // success/failure response
	// mscclpp-style counter-signal transport (core.TransportSignal): a
	// 16-byte one-sided write of a monotonic outbound counter into the
	// peer's inbound replica, executed in the target's NIC context.
	KindSignal
	// Reliability sublayer (internal to the fabric; never reaches handlers).
	KindAck // go-back-N cumulative acknowledgement

	// kindCount bounds the valid kind range for receive-side validation.
	kindCount
)

// Packet is one message on the wire. Size is what the latency model charges
// for; Payload carries structured upper-layer data (it is never serialized —
// the simulation moves Go values, and the latency model charges Size bytes).
type Packet struct {
	Src, Dst int
	Kind     Kind
	Size     int64
	Payload  interface{}

	// Arg carries small fixed protocol fields (epoch ids, counters) so most
	// control packets need no allocation-heavy payloads.
	Arg [4]int64

	// OnTxDone, if set, runs in kernel context the moment the packet has
	// fully left the sender's injection pipeline (local completion: the
	// origin buffer is reusable). Same-node packets fire it at delivery. It
	// receives the packet itself so senders can install one shared,
	// capture-free function and recover their state from Payload/Arg: the
	// call always precedes delivery, hence the pool's recycling of p.
	OnTxDone func(p *Packet)

	// Seq and Ack are reliability-sublayer fields, populated only when the
	// network runs with fault injection enabled: Seq is the per-directed-link
	// go-back-N sequence number, Ack piggybacks the sender's cumulative
	// receive state for the reverse direction.
	Seq uint64
	Ack uint64

	// Rail records which of the source NIC's injection rails carried the
	// packet (always 0 on a single-rail NIC). The reliability sublayer keys
	// its per-link sequence spaces by rail — each (link, rail) pair is an
	// independent go-back-N stream, mirroring real multi-rail QPs.
	Rail uint8

	// rel marks a packet owned by the reliability sublayer (a stable,
	// non-pooled retransmission copy); corrupt models a payload whose
	// checksum fails at the receiver, so it must be dropped there.
	rel     bool
	corrupt bool

	// nw and pooled link the packet to the Network free-list it came from
	// (see Network.AllocPacket). Pooled packets are recycled automatically
	// after their delivery handler returns, so a handler that needs packet
	// state beyond its own return must copy it out. Packets built as
	// literals have pooled == false and are never recycled.
	nw     *Network
	pooled bool
}

// Validate checks the packet's addressing and framing fields against a
// network of n ranks. It exists so a corrupted or malformed packet raises a
// contextual fabric-level error at the receive boundary instead of an
// unattributable panic deep inside the RMA protocol layer.
func (p *Packet) Validate(n int) error {
	if p.Src < 0 || p.Src >= n {
		return fmt.Errorf("fabric: packet kind %d: source rank %d out of range (n=%d)", p.Kind, p.Src, n)
	}
	if p.Dst < 0 || p.Dst >= n {
		return fmt.Errorf("fabric: packet kind %d from %d: destination rank %d out of range (n=%d)", p.Kind, p.Src, p.Dst, n)
	}
	if p.Size < 0 {
		return fmt.Errorf("fabric: packet kind %d from %d to %d: negative size %d", p.Kind, p.Src, p.Dst, p.Size)
	}
	if p.Kind >= kindCount {
		return fmt.Errorf("fabric: unknown packet kind %d from %d to %d", p.Kind, p.Src, p.Dst)
	}
	return nil
}
