package mpi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// TestNewWorldRejectsOversizedJob pins the pre-allocation guard: a world
// past fabric.MaxRanks must panic with a message naming the packed-field
// limit, before any per-rank state is built (an unaddressable 300k-rank
// world must not first allocate 300k ranks).
func TestNewWorldRejectsOversizedJob(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewWorld accepted a world past the addressing limit")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		for _, frag := range []string{"addressing limit", "18-bit"} {
			if !strings.Contains(msg, frag) {
				t.Fatalf("panic %q does not mention %q", msg, frag)
			}
		}
	}()
	NewWorld(fabric.MaxRanks+1, fabric.DefaultConfig())
}

// TestKernelContextPanicReachesRunCaller corrupts a packet in flight between
// two parked ranks, so fabric's receive-side validation fails inside an event
// callback that a rank's own goroutine is executing (the parked rank drives
// the loop). The panic is the simulator's, not the rank's: it must come out
// of World.Run as a panic — which is what fuzz's "panic outside rank
// context" recovery relies on — and never as a `proc "rank0" panicked` error.
// Sharded, the delivery runs on a worker shard and is re-raised by the
// coordinator.
func TestKernelContextPanicReachesRunCaller(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := fabric.DefaultConfig()
			cfg.ProcsPerNode = 1 // two nodes: the packet crosses the NIC pipeline (and the shards)
			w := NewWorldShards(2, cfg, shards)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "fabric: deliver") || !strings.Contains(msg, "negative size") {
					t.Fatalf("Run panicked with %q, want fabric's receive-side validation panic", msg)
				}
			}()
			err := w.Run(func(r *Rank) {
				if r.ID == 0 {
					p := w.Net.AllocPacketAt(0)
					p.Src, p.Dst, p.Kind, p.Size = 0, 1, fabric.KindUser, 64
					w.Net.Send(p)
					p.Size = -5 // mangled while in flight
				}
				r.Proc.Sleep(sim.Millisecond)
			})
			t.Fatalf("Run returned %v, want a panic", err)
		})
	}
}
