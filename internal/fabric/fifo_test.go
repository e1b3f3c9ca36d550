package fabric

import (
	"testing"
	"testing/quick"
)

func TestFifoBasic(t *testing.T) {
	f := NewFifo(4)
	if len(f.buf) != 4 || f.n != 0 {
		t.Fatalf("fresh fifo cap=%d len=%d", len(f.buf), f.n)
	}
	for i := uint64(0); i < 4; i++ {
		if !f.Push(i) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if f.Push(99) {
		t.Fatal("push succeeded on a full ring")
	}
	for i := uint64(0); i < 4; i++ {
		v, ok := f.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%t", i, v, ok)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop succeeded on an empty ring")
	}
}

func TestFifoWraparound(t *testing.T) {
	f := NewFifo(3)
	for round := uint64(0); round < 10; round++ {
		if !f.Push(round) {
			t.Fatalf("push failed at round %d", round)
		}
		v, ok := f.Pop()
		if !ok || v != round {
			t.Fatalf("round %d: got %d", round, v)
		}
	}
	if f.n != 0 || f.head != 10%3 || f.tail != 10%3 {
		t.Fatalf("after 10 push/pop pairs: n=%d head=%d tail=%d, want 0/1/1", f.n, f.head, f.tail)
	}
}

func TestFifoMinimumCapacity(t *testing.T) {
	f := NewFifo(0)
	if len(f.buf) != 1 {
		t.Fatalf("capacity %d, want clamped to 1", len(f.buf))
	}
}

// Property: a Fifo behaves exactly like a bounded queue model for any
// sequence of push/pop operations.
func TestFifoModelProperty(t *testing.T) {
	f := func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		fifo := NewFifo(capacity)
		var model []uint64
		for _, op := range ops {
			if op%2 == 0 { // push
				v := uint64(op)
				ok := fifo.Push(v)
				if ok != (len(model) < capacity) {
					return false
				}
				if ok {
					model = append(model, v)
				}
			} else { // pop
				v, ok := fifo.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if fifo.n != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
