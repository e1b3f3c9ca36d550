package core

import (
	"bytes"
	"encoding/binary"
	"math"
)

// fulfil applies op o's target-side effect to the window, on the NIC's
// delivery path and the loopback alike, and returns the bytes a fetching op
// reads back (nil for puts and accumulates, and on shape-only windows). A
// loopback contiguous get copies straight into o.buf instead and returns nil.
func (w *Window) fulfil(o *rmaOp, loopback bool) (old []byte) {
	switch o.class {
	case opPut:
		if o.vec != nil {
			w.applyPutVector(o.off, o.data, *o.vec)
		} else {
			w.applyPut(o.off, o.data, o.size)
		}
	case opGet:
		switch {
		case o.vec != nil:
			return w.snapshotVector(o.off, *o.vec)
		case !loopback:
			return w.snapshot(o.off, o.size)
		case o.buf != nil && w.buf != nil:
			copy(o.buf, w.buf[o.off:o.off+o.size])
		}
	case opAcc:
		w.applyAcc(o.off, o.data, o.size, o.op, o.dtype)
	case opGetAcc:
		old = w.snapshot(o.off, o.size)
		w.applyAcc(o.off, o.data, o.size, o.op, o.dtype)
	case opCAS:
		old = w.snapshot(o.off, o.size)
		if w.buf != nil && bytes.Equal(old, o.cmp) {
			copy(w.buf[o.off:o.off+o.size], o.data)
		}
	}
	return old
}

// applyPut writes data into the window memory (no-op on shape-only
// windows, where only timing is modeled).
func (w *Window) applyPut(off int64, data []byte, size int64) {
	if w.buf == nil || data == nil {
		return
	}
	copy(w.buf[off:off+size], data)
}

// snapshot returns a copy of the window region (nil on shape-only windows).
func (w *Window) snapshot(off, size int64) []byte {
	if w.buf == nil {
		return nil
	}
	out := make([]byte, size)
	copy(out, w.buf[off:off+size])
	return out
}

// applyAcc combines operand data into the window region element-wise.
// Element-wise atomicity is guaranteed by construction: the simulation
// applies each accumulate in a single kernel event.
func (w *Window) applyAcc(off int64, data []byte, size int64, op AccOp, dt DType) {
	if w.buf == nil {
		return
	}
	if op == OpNoOp {
		return
	}
	es := int64(dt.Size())
	for i := int64(0); i < size; i += es {
		dst := w.buf[off+i : off+i+es]
		var src []byte
		if data != nil {
			src = data[i : i+es]
		}
		w.combine(dst, src, op, dt)
	}
}

// combine applies dst = dst (op) src for one element. A nil src acts as the
// operator's identity (shape-only traffic).
func (w *Window) combine(dst, src []byte, op AccOp, dt DType) {
	if src == nil {
		return
	}
	if op == OpReplace {
		copy(dst, src)
		return
	}
	switch dt {
	case TByte:
		dst[0] = byte(w.combineU64(uint64(dst[0]), uint64(src[0]), op, dt))
	case TInt64, TUint64:
		a := binary.LittleEndian.Uint64(dst)
		b := binary.LittleEndian.Uint64(src)
		binary.LittleEndian.PutUint64(dst, w.combineU64(a, b, op, dt))
	case TFloat64:
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src))
		var r float64
		switch op {
		case OpSum:
			r = a + b
		case OpProd:
			r = a * b
		case OpMax:
			r = math.Max(a, b)
		case OpMin:
			r = math.Min(a, b)
		default:
			w.raisef("operator %d not defined for float64", op)
		}
		binary.LittleEndian.PutUint64(dst, math.Float64bits(r))
	}
}

// combineU64 implements the integer operators; for TInt64 the ordered
// operators compare as signed values. TByte callers truncate the result.
func (w *Window) combineU64(a, b uint64, op AccOp, dt DType) uint64 {
	signed := dt == TInt64
	less := func(x, y uint64) bool {
		if signed {
			return int64(x) < int64(y)
		}
		return x < y
	}
	var r uint64
	switch op {
	case OpSum:
		r = a + b
	case OpProd:
		r = a * b
	case OpMax:
		if less(a, b) {
			r = b
		} else {
			r = a
		}
	case OpMin:
		if less(b, a) {
			r = b
		} else {
			r = a
		}
	case OpBand:
		r = a & b
	case OpBor:
		r = a | b
	case OpBxor:
		r = a ^ b
	default:
		w.raisef("unsupported integer operator %d", op)
	}
	return r
}
