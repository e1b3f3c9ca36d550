package fuzz

import (
	"encoding/binary"

	"repro/internal/core"
)

// The sequential oracle: replay every round's writes in program order on a
// plain byte array per (window, rank). The generation discipline guarantees
// the real runs converge to the same memory no matter how the middleware
// ordered the transfers — puts are idempotent functions of their location,
// accumulates all use one commutative-associative operator per window, and
// CAS slots are single-use.
//
// The combining arithmetic below is deliberately written independently of
// internal/core's combine so that the comparison cross-checks it.

// Expected returns the final window memory: [window][rank][]byte.
func Expected(p *Program) [][][]byte {
	mems := make([][][]byte, len(p.Windows))
	for wi, ws := range p.Windows {
		mems[wi] = make([][]byte, p.NRanks)
		for r := 0; r < p.NRanks; r++ {
			mems[wi][r] = make([]byte, ws.TotalSize(p.NRanks))
		}
	}
	for _, rd := range p.Rounds {
		for _, phase := range rd.PhaseOps {
			for origin, ops := range phase {
				for _, o := range ops {
					applyOracleOp(p, rd.Win, origin, o, mems)
				}
			}
		}
		for origin, ops := range rd.Ops {
			for _, o := range ops {
				applyOracleOp(p, rd.Win, origin, o, mems)
			}
		}
	}
	return mems
}

func applyOracleOp(p *Program, wi, origin int, o OpSpec, mems [][][]byte) {
	ws := p.Windows[wi]
	mem := mems[wi][o.Target]
	switch o.Kind {
	case OpPut:
		for i := int64(0); i < o.Size; i++ {
			mem[o.Off+i] = putByteAt(wi, origin, o.Off+i)
		}
	case OpGet:
		// no memory effect
	case OpAcc, OpGetAcc, OpFAO:
		if !o.NoOp {
			oracleAcc(mem[o.Off:o.Off+o.Size], accPayload(make([]byte, 0, o.Size), o.Val, o.Size, ws.DT), ws.Op, ws.DT)
		}
	case OpCAS:
		if o.Match {
			binary.LittleEndian.PutUint64(mem[o.Off:], casSwap(o.Val))
		}
	}
}

// oracleAcc applies dst = dst (op) src element-wise.
func oracleAcc(dst, src []byte, op core.AccOp, dt core.DType) {
	if dt == core.TByte {
		for i := range dst {
			dst[i] = byte(oracleOp(uint64(dst[i]), uint64(src[i]), op, false) & 0xff)
		}
		return
	}
	signed := dt == core.TInt64
	for i := 0; i+8 <= len(dst); i += 8 {
		a := binary.LittleEndian.Uint64(dst[i:])
		b := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], oracleOp(a, b, op, signed))
	}
}

func oracleOp(a, b uint64, op core.AccOp, signed bool) uint64 {
	switch op {
	case core.OpSum:
		return a + b
	case core.OpProd:
		return a * b
	case core.OpBand:
		return a & b
	case core.OpBor:
		return a | b
	case core.OpBxor:
		return a ^ b
	case core.OpMax:
		if signed {
			if int64(a) >= int64(b) {
				return a
			}
			return b
		}
		if a >= b {
			return a
		}
		return b
	case core.OpMin:
		if signed {
			if int64(a) <= int64(b) {
				return a
			}
			return b
		}
		if a <= b {
			return a
		}
		return b
	}
	panic("fuzz: oracle does not model this operator")
}
