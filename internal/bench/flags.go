package bench

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"repro/internal/par"
)

// Flags bundles the profiling and parallelism flags shared by the binaries
// in cmd/. Register them before parsing, then Start after:
//
//	pf := bench.RegisterFlags(flag.CommandLine)
//	flag.Parse()
//	stop := pf.Start()
//	defer stop()
//
// Start applies -workers process-wide and begins any requested profiles;
// the returned stop flushes them. Binaries that exit through os.Exit must
// call stop explicitly first (deferred calls do not run through os.Exit).
type Flags struct {
	CPUProfile string
	MemProfile string
	Trace      string
	Workers    int
	Shards     int
}

// RegisterFlags registers -cpuprofile, -memprofile, -trace, -workers and
// -shards on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to `file` on exit")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to `file`")
	fs.IntVar(&f.Workers, "workers", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&f.Shards, "shards", 0, "kernel shards per simulation (<= 1 = serial kernel); results are bit-identical at any count")
	return f
}

// shards is the process-wide kernel shard count applied by Flags.Start;
// every figure's world and the fuzzer read it through Shards().
var shards int

// Shards returns the process-wide kernel shard count (-shards flag; 0 when
// unset, meaning the serial kernel).
func Shards() int { return shards }

// SetShards overrides the process-wide kernel shard count (tests; binaries
// use the -shards flag).
func SetShards(n int) { shards = n }

// Start applies the parsed flags and returns the flush function.
func (f *Flags) Start() (stop func()) {
	par.SetWorkers(f.Workers)
	shards = f.Shards
	var cpuF, traceF *os.File
	if f.CPUProfile != "" {
		cpuF = mustCreate(f.CPUProfile)
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			fatalf("start CPU profile: %v", err)
		}
	}
	if f.Trace != "" {
		traceF = mustCreate(f.Trace)
		if err := trace.Start(traceF); err != nil {
			fatalf("start execution trace: %v", err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
		if f.MemProfile != "" {
			memF := mustCreate(f.MemProfile)
			runtime.GC() // materialize the final live heap
			if err := pprof.WriteHeapProfile(memF); err != nil {
				fatalf("write heap profile: %v", err)
			}
			memF.Close()
		}
	}
}

func mustCreate(path string) *os.File {
	file, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	return file
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "profiling: "+format+"\n", args...)
	os.Exit(2)
}
