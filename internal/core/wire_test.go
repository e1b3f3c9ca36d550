package core

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
)

// combine binds the element combiner to a scratch window so the table
// tests below can exercise it without a full runtime.
var combine = (&Window{rank: &mpi.Rank{}}).combine

func putU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func getU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func putF64(v float64) []byte { return putU64(math.Float64bits(v)) }

func getF64(b []byte) float64 { return math.Float64frombits(getU64(b)) }

func TestCombineIntegerOps(t *testing.T) {
	cases := []struct {
		op   AccOp
		a, b uint64
		want uint64
	}{
		{OpSum, 3, 4, 7},
		{OpProd, 3, 4, 12},
		{OpMax, 3, 4, 4},
		{OpMin, 3, 4, 3},
		{OpBand, 0b1100, 0b1010, 0b1000},
		{OpBor, 0b1100, 0b1010, 0b1110},
		{OpBxor, 0b1100, 0b1010, 0b0110},
		{OpReplace, 3, 4, 4},
	}
	for _, c := range cases {
		dst := putU64(c.a)
		combine(dst, putU64(c.b), c.op, TUint64)
		if got := getU64(dst); got != c.want {
			t.Errorf("op %d: %d (op) %d = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestCombineSignedMinMax(t *testing.T) {
	dst := putU64(uint64(^uint64(0))) // -1 as int64
	combine(dst, putU64(1), OpMax, TInt64)
	if int64(getU64(dst)) != 1 {
		t.Fatal("signed max treated -1 as large unsigned")
	}
	dst = putU64(uint64(^uint64(0)))
	combine(dst, putU64(1), OpMin, TInt64)
	if int64(getU64(dst)) != -1 {
		t.Fatal("signed min wrong")
	}
}

func TestCombineFloat(t *testing.T) {
	dst := putF64(1.5)
	combine(dst, putF64(2.25), OpSum, TFloat64)
	if getF64(dst) != 3.75 {
		t.Fatalf("float sum %v", getF64(dst))
	}
	dst = putF64(2)
	combine(dst, putF64(3), OpProd, TFloat64)
	if getF64(dst) != 6 {
		t.Fatalf("float prod %v", getF64(dst))
	}
	dst = putF64(2)
	combine(dst, putF64(3), OpMax, TFloat64)
	if getF64(dst) != 3 {
		t.Fatalf("float max %v", getF64(dst))
	}
}

func TestCombineByte(t *testing.T) {
	dst := []byte{10}
	combine(dst, []byte{5}, OpSum, TByte)
	if dst[0] != 15 {
		t.Fatalf("byte sum %d", dst[0])
	}
}

func TestCombineNilSrcIsIdentity(t *testing.T) {
	dst := putU64(42)
	combine(dst, nil, OpSum, TUint64)
	if getU64(dst) != 42 {
		t.Fatal("nil operand mutated destination")
	}
}

func TestCombineFloatBitwisePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bitwise op on float should panic")
		}
	}()
	combine(putF64(1), putF64(2), OpBand, TFloat64)
}

func TestApplyAccElementwise(t *testing.T) {
	w := &Window{size: 32, buf: make([]byte, 32)}
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(w.buf[i*8:], uint64(i))
	}
	operand := make([]byte, 32)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(operand[i*8:], 10)
	}
	w.applyAcc(0, operand, 32, OpSum, TUint64)
	for i := 0; i < 4; i++ {
		if got := binary.LittleEndian.Uint64(w.buf[i*8:]); got != uint64(i)+10 {
			t.Fatalf("element %d = %d", i, got)
		}
	}
}

func TestApplyAccNoOp(t *testing.T) {
	w := &Window{size: 8, buf: putU64(5)}
	w.applyAcc(0, putU64(100), 8, OpNoOp, TUint64)
	if getU64(w.buf) != 5 {
		t.Fatal("OpNoOp modified target memory")
	}
}

func TestApplyPutAndSnapshot(t *testing.T) {
	w := &Window{size: 16, buf: make([]byte, 16)}
	w.applyPut(4, []byte{1, 2, 3}, 3)
	if w.buf[4] != 1 || w.buf[6] != 3 {
		t.Fatal("applyPut wrote wrong bytes")
	}
	snap := w.snapshot(4, 3)
	w.buf[4] = 99
	if snap[0] != 1 {
		t.Fatal("snapshot aliases window memory")
	}
}

func TestShapeOnlyApplyIsNoop(t *testing.T) {
	w := &Window{size: 16} // buf nil
	w.applyPut(0, []byte{1}, 1)
	w.applyAcc(0, putU64(1), 8, OpSum, TUint64)
	if w.snapshot(0, 8) != nil {
		t.Fatal("shape-only snapshot should be nil")
	}
}

// Property: integer OpSum commutes and OpMax/OpMin are idempotent.
func TestCombineAlgebraProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		x := putU64(a)
		combine(x, putU64(b), OpSum, TUint64)
		y := putU64(b)
		combine(y, putU64(a), OpSum, TUint64)
		if getU64(x) != getU64(y) {
			return false
		}
		z := putU64(a)
		combine(z, putU64(a), OpMax, TUint64)
		if getU64(z) != a {
			return false
		}
		combine(z, putU64(a), OpMin, TUint64)
		return getU64(z) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
