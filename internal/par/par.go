// Package par is the worker pool behind the parallel benchmark/fuzz
// harness. Every simulation run in this repository is an independent,
// deterministic, single-threaded event loop (one sim.Kernel per run, no
// package-level mutable state), so replications can be fanned across CPUs
// freely: each job computes exactly the values it would compute serially,
// and Map returns them in index order, which keeps every figure table,
// ablation cell and fuzz verdict bit-for-bit identical to a serial run.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide worker count; 0 means GOMAXPROCS.
// Set from the cmd/ binaries' -workers flag.
var defaultWorkers atomic.Int32

// SetWorkers fixes the worker count used by Map. n <= 0 restores the
// default (GOMAXPROCS at call time).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// Workers returns the effective worker count.
func Workers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs f(0), ..., f(n-1) across Workers() goroutines and returns the
// results in index order. Jobs must be independent (no shared mutable
// state); the result slice is identical to running the jobs serially.
func Map[T any](n int, f func(int) T) []T { return MapN(Workers(), n, f) }

// MapN is Map with an explicit worker count. workers <= 1 runs the jobs
// serially on the calling goroutine.
//
// A panicking job does not take down its worker's siblings: all jobs still
// run, and MapN re-raises the panic of the lowest-index failed job so that
// the surfaced error is deterministic regardless of scheduling.
func MapN[T any](workers, n int, f func(int) T) []T {
	out := make([]T, n)
	Stream(workers, n, f, func(i int, v T) { out[i] = v })
	return out
}

// Stream is MapN that hands each result to emit, on the calling goroutine
// and in index order, while later jobs keep running: what a campaign that
// reports as it goes needs. Panics are MapN's: emit sees every result before
// the lowest-index failed job, and Stream re-raises that job's panic once
// all jobs have run.
func Stream[T any](workers, n int, f func(int) T, emit func(int, T)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			emit(i, f(i))
		}
		return
	}
	// Workers pull the next unclaimed job and publish its result on that
	// job's slot; the caller consumes slots in index order. The deferred
	// Wait lets every job finish before a panic leaves.
	slots := make([]chan result[T], n)
	for i := range slots {
		slots[i] = make(chan result[T], 1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				slots[i] <- runJob(i, f)
			}
		}()
	}
	for i, slot := range slots {
		r := <-slot
		if r.panic != nil {
			panic(fmt.Sprintf("par: job %d panicked: %v\n%s", i, r.panic.val, r.panic.stack))
		}
		emit(i, r.v)
	}
}

// result is one job's value, or the panic that replaced it.
type result[T any] struct {
	v     T
	panic *jobPanic
}

// jobPanic records a job's panic value with the stack captured inside the
// failing job, so the re-raised panic points at the real fault.
type jobPanic struct {
	val   any
	stack []byte
}

// runJob executes one job, converting a panic into a recorded value.
func runJob[T any](i int, f func(int) T) (r result[T]) {
	defer func() {
		if p := recover(); p != nil {
			r.panic = &jobPanic{val: p, stack: debug.Stack()}
		}
	}()
	r.v = f(i)
	return r
}
