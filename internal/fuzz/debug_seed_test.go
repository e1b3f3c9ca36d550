package fuzz

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestDebugSeed is a manual debugging aid: it prints one seed's program —
// every operation of every round and fence phase, with its operand — what
// Verify reports of its ModeNew run, and every epoch's span with its latency
// parts.
//
//	FUZZ_DEBUG_SEED=161 go test ./internal/fuzz -run TestDebugSeed -v
func TestDebugSeed(t *testing.T) {
	env := os.Getenv("FUZZ_DEBUG_SEED")
	if env == "" {
		t.Skip("set FUZZ_DEBUG_SEED to use")
	}
	seed, err := strconv.ParseUint(env, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := Generate(seed)
	fmt.Printf("seed %d: %d ranks ppn=%d\n", seed, p.NRanks, p.ProcsPerNode)
	for wi, ws := range p.Windows {
		fmt.Printf("win %d: acc=%d slice=%d op=%v dt=%v passive=%v info=%+v\n",
			wi, ws.AccSize, ws.SliceSz, ws.Op, ws.DT, ws.Passive, ws.Info)
	}
	for ri, rd := range p.Rounds {
		fmt.Printf("round %d: win=%d kind=%d nb=%v origins=%v targets=%v lockT=%v shared=%v member=%v phases=%d\n",
			ri, rd.Win, rd.Kind, rd.Nonblocking, rd.Origins, rd.Targets, rd.LockTarget, rd.LockShared, rd.Member, rd.Phases)
		printOps := func(phase string, ops [][]OpSpec) {
			for r, ops := range ops {
				for _, o := range ops {
					fmt.Printf("  %srank %d: kind=%d target=%d off=%d size=%d val=%#x noop=%v match=%v\n",
						phase, r, o.Kind, o.Target, o.Off, o.Size, o.Val, o.NoOp, o.Match)
				}
			}
		}
		for ph, ops := range rd.PhaseOps {
			printOps(fmt.Sprintf("phase %d ", ph), ops)
		}
		printOps("", rd.Ops)
	}
	res := Execute(p, core.ModeNew)
	fmt.Printf("err: %v\n", res.Err)
	for _, problem := range Verify(p, core.ModeNew, res) {
		fmt.Printf("problem: %s\n", problem)
	}
	for _, s := range res.Spans {
		fmt.Printf("%+v\n ", s)
		for part, d := range s.Parts {
			fmt.Printf(" %s=%d", trace.Part(part), d)
		}
		fmt.Println()
	}
}
