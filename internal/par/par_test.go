package par

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapNOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		res := MapN(workers, 100, func(i int) int { return i * i })
		if len(res) != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, len(res))
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("workers=%d: res[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapNEmpty(t *testing.T) {
	res := MapN(4, 0, func(i int) int { t.Fatal("job ran"); return 0 })
	if len(res) != 0 {
		t.Fatalf("got %d results, want 0", len(res))
	}
}

func TestMapUsesDefaultWorkers(t *testing.T) {
	SetWorkers(3)
	defer SetWorkers(0)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	res := Map(10, func(i int) int { return i + 1 })
	for i, v := range res {
		if v != i+1 {
			t.Fatalf("res[%d] = %d, want %d", i, v, i+1)
		}
	}
}

func TestMapNPanicIsDeterministic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a re-raised panic")
		}
		msg := fmt.Sprint(r)
		// All jobs >= 3 panic; the lowest failed index must surface no
		// matter how the workers were scheduled.
		if !strings.Contains(msg, "job 3 panicked: boom-3") {
			t.Fatalf("re-raised panic = %q, want the job-3 panic", msg)
		}
	}()
	MapN(4, 10, func(i int) int {
		if i >= 3 {
			panic(fmt.Sprintf("boom-%d", i))
		}
		return i
	})
}

// Stream hands results to emit in index order at any worker count, while
// later jobs still run: the last job here waits for the first emit.
func TestStreamInOrderWhileRunning(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		first := make(chan struct{})
		var got []int
		Stream(workers, 20, func(i int) int {
			if i == 19 && workers > 1 {
				select {
				case <-first:
				case <-time.After(10 * time.Second):
					t.Error("the last job ran to the end before anything was emitted")
				}
			}
			return 3 * i
		}, func(i, v int) {
			if i != len(got) || v != 3*i {
				t.Fatalf("workers=%d: emit(%d, %d) after %d results", workers, i, v, len(got))
			}
			if i == 0 {
				close(first)
			}
			got = append(got, i)
		})
		if len(got) != 20 {
			t.Fatalf("workers=%d: %d results emitted, want 20", workers, len(got))
		}
	}
}

// A panicking job stops the emits at its index; every job still runs and the
// lowest failed index surfaces, however the workers were scheduled.
func TestStreamPanicIsDeterministic(t *testing.T) {
	var ran atomic.Int32
	var emitted []int
	func() {
		defer func() {
			if r := fmt.Sprint(recover()); !strings.Contains(r, "job 3 panicked: boom-3") {
				t.Fatalf("re-raised panic = %q, want the job-3 panic", r)
			}
		}()
		Stream(4, 10, func(i int) int {
			ran.Add(1)
			if i >= 3 && i%2 == 1 {
				panic(fmt.Sprintf("boom-%d", i))
			}
			return i
		}, func(i, _ int) { emitted = append(emitted, i) })
	}()
	if ran.Load() != 10 || fmt.Sprint(emitted) != "[0 1 2]" {
		t.Fatalf("%d jobs ran, emitted %v; want 10 and [0 1 2]", ran.Load(), emitted)
	}
}
