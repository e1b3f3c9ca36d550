package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the gzipped protobuf CPU profiles runtime/pprof writes, just
// deep enough to attribute every sample to its leaf function: the benchmark
// bins host CPU time by the package that was executing, from outside the
// program, and go.mod stays dependency-free.
//
// Field numbers are from github.com/google/pprof/proto/profile.proto.

// profileBins is the self_share.* breakdown, in reporting order: the repo's
// layers, then the Go runtime split by what the simulator makes it do.
var profileBins = []string{
	"sim", "fabric", "topo", "mpi", "core", "kvstore", "fuzz", "bench",
	"other_repro", // par, trace, stats, the repro facade and this benchmark's own frames
	"go_sched",    // goroutine handoff: channels, park/ready, futex, scheduler
	"go_mem",      // allocation, GC, write barriers, memclr, stack growth
	"go_other",    // the rest of the runtime and standard library
}

// Runtime leaf-function name fragments, checked in order. Handoff first:
// the proc scheduler's channel rendezvous is what distinguishes the
// goroutine-proc workloads from the task-form one.
var (
	schedMarks = []string{
		"chan", "park", "ready", "futex", "schedule", "findRunnable", "runq", "mcall", "gogo",
		"execute", "goexit", "newproc", "gfget", "gfput", "casgstatus", "note", "wakep", "startm",
		"stopm", "sema", "lock2", "unlock2", "Sudog", "selectgo", "osyield", "usleep", "netpoll",
		"checkTimers", "sysmon", "retake", "preempt", "gosched", "globrunq", "pidle", "mPark",
		"mstart", "dropg", "resetspinning", "injectglist", "stealWork", "nanotime", "lockWithRank",
		"unlockWithRank", "guintptr", "timers", ".send", ".recv", "waitq", "traceAcquire", "traceLocker",
		"gosave", "mLockProfile", "waitReason", "Preempt",
	}
	memMarks = []string{
		"malloc", "gc", "GC", "scan", "grey", "mark", "sweep", "mspan", "mcache", "mcentral", "mheap",
		"heapBits", "memclr", "wbBuf", "Barrier", "barrier", "nextFree", "findObject", "spanOf",
		"arena", "stack", "span", "bitmap", "pageAlloc", "pallocBits", "growslice", "makeslice",
		"newobject", "makemap", "makechan", "publicationBarrier", "divRoundUp", "tracealloc",
		"profilealloc", "fixalloc", "persistentalloc", "sysAlloc", "sysUsed", "sysUnused", "scavenge",
		"madvise", "mmap", "limiterEvent", "memmove", "typedmemmove", "bulkBarrier", "pollWork",
		"typePointers", "getMCache", "roundupsize",
	}
)

// binOf maps a fully qualified function name to its profile bin.
func binOf(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		switch rest {
		case "sim", "fabric", "topo", "mpi", "core", "kvstore", "fuzz", "bench":
			return rest
		}
		return "other_repro"
	}
	if pkg == "repro" || pkg == "main" || strings.HasPrefix(pkg, "repro/") {
		return "other_repro"
	}
	if pkg == "runtime" || pkg == fn { // a bare name is runtime assembly (gogo, aeshashbody)
		name := strings.TrimPrefix(fn, "runtime")
		for _, m := range schedMarks {
			if strings.Contains(name, m) {
				return "go_sched"
			}
		}
		for _, m := range memMarks {
			if strings.Contains(name, m) {
				return "go_mem"
			}
		}
	}
	return "go_other"
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/sim.(*Kernel).Run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profileShares bins a CPU profile's samples by the package of their leaf
// frame and returns each bin's fraction, plus the number of samples binned.
func profileShares(gz []byte) (map[string]float64, int64, error) {
	leaves, err := profileLeaves(gz)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for fn, n := range leaves {
		if strings.HasPrefix(fn, "main.(*refKernel).") {
			continue // the host-speed reference between units is not the workload
		}
		counts[binOf(fn)] += n
		total += n
	}
	shares := make(map[string]float64, len(profileBins))
	for _, b := range profileBins {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		}
	}
	return shares, total, nil
}

// profileLeaves decodes a CPU profile into samples per leaf function name.
func profileLeaves(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	var (
		strs      []string
		funcName  = map[uint64]uint64{} // function id -> string-table index of its name
		locLeafFn = map[uint64]uint64{} // location id -> function id of its innermost line
		samples   []leafSample
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			s, err := parseSample(b)
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if seenLine {
						return nil
					}
					seenLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locLeafFn[id] = fn
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	leaves := map[string]int64{}
	for _, s := range samples {
		name := ""
		if idx := funcName[locLeafFn[s.leaf]]; idx < uint64(len(strs)) {
			name = strs[idx]
		}
		leaves[name] += s.n
	}
	return leaves, nil
}

// leafSample is one profile sample reduced to its leaf location and its
// first value (the sample count of a CPU profile).
type leafSample struct {
	leaf uint64
	n    int64
}

func parseSample(b []byte) (leafSample, error) {
	var s leafSample
	haveLeaf, haveVal := false, false
	err := eachField(b, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // location_id, leaf first; packed or repeated
			if !haveLeaf {
				haveLeaf = true
				s.leaf = firstVarint(v, b)
			}
		case 2: // value
			if !haveVal {
				haveVal = true
				s.n = int64(firstVarint(v, b))
			}
		}
		return nil
	})
	return s, err
}

// firstVarint returns the first element of a repeated varint field given
// either its unpacked value or its packed payload.
func firstVarint(v uint64, packed []byte) uint64 {
	if packed == nil {
		return v
	}
	x, _ := binary.Uvarint(packed)
	return x
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling f with each field's number
// and either its varint value (b == nil) or its length-delimited payload.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1: // 64-bit
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			body := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(num, 0, body); err != nil {
				return err
			}
		case 5: // 32-bit
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
	}
	return nil
}
