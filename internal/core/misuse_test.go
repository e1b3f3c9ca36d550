package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// A misuse program is a byte string: one header byte (the world and window
// shape), then one callBytes-byte record per Window call. The misuse table
// below and FuzzWindowCalls run the same decoder, and the table's rows are
// the fuzz target's seed corpus.

// callKind selects the Window call a record makes.
type callKind uint8

const (
	kPut callKind = iota
	kGet
	kAcc
	kGetAcc
	kFAO
	kCAS
	kPutVector
	kGetVector
	kRPut
	kRGetAcc
	kLock
	kUnlock
	kILock
	kIUnlock
	kLockAll
	kUnlockAll
	kStart
	kComplete
	kIStart
	kIComplete
	kPost
	kWaitEpoch
	kFence
	kIFence
	kFlush
	kFlushLocal
	kFlushAll
	kIFlush
	kIFlushLocal
	kSignal
	kSignalCount
	kWaitSignal
	kPeerState
	kTakeErr
	nCallKinds
)

// call is one decoded record. RMA calls read target, off, size, dt, op and
// two buffers, data and result, whose lengths are given (0: nil); a CAS
// takes its compare operand from result's length, and a vector op reads
// size as its count, dt as its block length and op as its stride. Lock calls
// read off's bits as exclusive and NOCHECK, fence calls off as the
// assertion, and GATS calls the group size%3 ranks [target, off] long.
type call struct {
	rank         uint8
	kind         callKind
	target, off  int8
	size         uint8
	dt, op       int8
	data, result uint8
}

const callBytes = 9

// encodeCalls renders hdr and calls as a misuse program.
func encodeCalls(hdr byte, calls ...call) []byte {
	b := []byte{hdr}
	for _, c := range calls {
		b = append(b, c.rank, byte(c.kind), byte(c.target), byte(c.off), c.size,
			byte(c.dt), byte(c.op), c.data, c.result)
	}
	return b
}

// decodeCalls parses a misuse program; a trailing partial record is dropped.
func decodeCalls(b []byte) (hdr byte, calls []call) {
	if len(b) == 0 {
		return 0, nil
	}
	hdr, b = b[0], b[1:]
	for ; len(b) >= callBytes; b = b[callBytes:] {
		calls = append(calls, call{rank: b[0], kind: callKind(b[1] % byte(nCallKinds)),
			target: int8(b[2]), off: int8(b[3]), size: b[4], dt: int8(b[5]), op: int8(b[6]),
			data: b[7], result: b[8]})
	}
	return hdr, calls
}

// buffer is a record's buffer: nil for length 0.
func buffer(n uint8) []byte {
	if n == 0 {
		return nil
	}
	return make([]byte, n)
}

// group is a GATS record's group: size%3 ranks of [target, off].
func (c call) group() []int {
	return []int{int(c.target), int(c.off)}[:c.size%3]
}

// make binds c to the window *win as one script call.
func (c call) make(win **Window) func() {
	t, off, size := int(c.target), int64(c.off), int64(c.size)
	dt, op := DType(c.dt), AccOp(c.op)
	excl, noCheck := c.off&1 != 0, c.off&2 != 0
	return func() {
		w := *win
		switch c.kind {
		case kPut:
			w.Put(t, off, buffer(c.data), size)
		case kGet:
			w.Get(t, off, buffer(c.result), size)
		case kAcc:
			w.Accumulate(t, off, op, dt, buffer(c.data), size)
		case kGetAcc:
			w.GetAccumulate(t, off, op, dt, buffer(c.data), buffer(c.result), size)
		case kFAO:
			w.FetchAndOp(t, off, op, dt, buffer(c.data), buffer(c.result))
		case kCAS:
			w.CompareAndSwap(t, off, dt, buffer(c.result), buffer(c.data), buffer(c.result))
		case kPutVector:
			w.PutVector(t, off, size, int64(c.dt), int64(c.op), buffer(c.data))
		case kGetVector:
			w.GetVector(t, off, size, int64(c.dt), int64(c.op), buffer(c.result))
		case kRPut:
			w.RPut(t, off, buffer(c.data), size)
		case kRGetAcc:
			w.RGetAccumulate(t, off, op, dt, buffer(c.data), buffer(c.result), size)
		case kLock:
			w.LockAssert(t, excl, noCheck)
		case kUnlock:
			w.Unlock(t)
		case kILock:
			w.ILockAssert(t, excl, noCheck)
		case kIUnlock:
			w.IUnlock(t)
		case kLockAll:
			w.LockAll()
		case kUnlockAll:
			w.UnlockAll()
		case kStart:
			w.Start(c.group())
		case kComplete:
			w.Complete()
		case kIStart:
			w.IStart(c.group())
		case kIComplete:
			w.IComplete()
		case kPost:
			w.Post(c.group())
		case kWaitEpoch:
			w.WaitEpoch()
		case kFence:
			w.Fence(FenceAssert(c.off))
		case kIFence:
			w.IFence(FenceAssert(c.off))
		case kFlush:
			w.Flush(t)
		case kFlushLocal:
			w.FlushLocal(t)
		case kFlushAll:
			w.FlushAll()
		case kIFlush:
			w.IFlush(t)
		case kIFlushLocal:
			w.IFlushLocal(t)
		case kSignal:
			w.Signal(t)
		case kSignalCount:
			w.SignalCount(t)
		case kWaitSignal:
			w.WaitSignal(t, size)
		case kPeerState:
			w.PeerState(t)
		case kTakeErr:
			w.TakeErr()
		}
	}
}

// runCalls runs a misuse program on a fresh world in one mode and rank form:
// 2 ranks (3 with hdr bit 0), a 64-byte window that is shape-only (bit 1),
// on the signal transport (bit 2), with errors returned (bit 3) and every
// reorder flag on (bit 4). Each rank creates the window, then makes its
// records in order. A watchdog bounds programs that livelock, such as a
// flush-mode lock retried forever against a holder that has exited. A panic
// out of Run is returned as escaped, not raised.
func runCalls(mode Mode, tasks bool, prog []byte) (err error, escaped any) {
	hdr, calls := decodeCalls(prog)
	n := 2 + int(hdr&1)
	opt := WinOptions{Mode: mode, ShapeOnly: hdr&2 != 0, ErrorsReturn: hdr&8 != 0}
	if hdr&4 != 0 {
		opt.Transport = TransportSignal
	}
	if hdr&16 != 0 {
		opt.Info = Info{AAAR: true, AAER: true, EAER: true, EAAR: true}
	}
	w := mpi.NewWorld(n, fabric.DefaultConfig())
	rt := NewRuntime(w)
	w.K.SetWatchdog(200_000, 100*sim.Millisecond)
	defer func() { escaped = recover() }()
	return runForm(w, rt, tasks, func(rt *Runtime, r *mpi.Rank) []func() {
		var win *Window
		script := []func(){func() { win = rt.CreateWindow(r, 64, opt) }}
		for _, c := range calls {
			if int(c.rank)%n == r.ID {
				script = append(script, c.make(&win))
			}
		}
		return script
	}), nil
}

// lockTo1 opens rank 0's passive epoch toward rank 1, admitted in every mode.
var lockTo1 = call{kind: kLock, target: 1, off: 1}

// misuseRows are misuses of a Window call on rank 0 of a 2-rank world with a
// 64-byte window. Each raises at the call, so the run fails with
// "core: rank 0 win 0: " + want. gats rows open an epoch flush mode refuses.
var misuseRows = []struct {
	name  string
	gats  bool
	calls []call
	want  string
}{
	{"Lock(99)", false, []call{{kind: kLock, target: 99, off: 1}}, "lock epoch toward rank 99 out of range (n=2)"},
	{"Lock(-1)", false, []call{{kind: kLock, target: -1}}, "lock epoch toward rank -1 out of range (n=2)"},
	{"Unlock(-1)", false, []call{{kind: kUnlock, target: -1}}, "lock epoch toward rank -1 out of range (n=2)"},
	// Rank 1 posts toward rank 0 in the GATS rows, so a check that came late
	// would hang in the watchdog instead.
	{"Start([99])", true, []call{{kind: kStart, target: 99, size: 1}, {rank: 1, kind: kPost, size: 1},
		{rank: 1, kind: kWaitEpoch}}, "access epoch toward rank 99 out of range (n=2)"},
	{"Start([-1])", true, []call{{kind: kStart, target: -1, size: 1}, {rank: 1, kind: kPost, size: 1},
		{rank: 1, kind: kWaitEpoch}}, "access epoch toward rank -1 out of range (n=2)"},
	{"Start([1 1])", true, []call{{kind: kStart, target: 1, off: 1, size: 2}, {rank: 1, kind: kPost, size: 1},
		{rank: 1, kind: kWaitEpoch}}, "access epoch group names rank 1 twice"},

	{"Put short origin", false, []call{lockTo1, {kind: kPut, target: 1, size: 8, data: 2}},
		"origin buffer of 2 bytes is shorter than the 8-byte operation"},
	{"Get short result", false, []call{lockTo1, {kind: kGet, target: 1, size: 8, result: 2}},
		"result buffer of 2 bytes is shorter than the 8-byte operation"},
	{"Accumulate short origin", false, []call{lockTo1, {kind: kAcc, target: 1, size: 8, data: 2}},
		"origin buffer of 2 bytes is shorter than the 8-byte operation"},
	{"GetAccumulate short result", false, []call{lockTo1, {kind: kGetAcc, target: 1, size: 8, data: 8, result: 2}},
		"result buffer of 2 bytes is shorter than the 8-byte operation"},
	{"FetchAndOp short origin", false, []call{lockTo1, {kind: kFAO, target: 1, data: 2, result: 8}},
		"origin buffer of 2 bytes is shorter than the 8-byte operation"},
	{"PutVector short origin", false, []call{lockTo1, {kind: kPutVector, target: 1, size: 2, dt: 4, op: 8, data: 2}},
		"origin buffer of 2 bytes is shorter than the 8-byte operation"},
	{"GetVector short result", false, []call{lockTo1, {kind: kGetVector, target: 1, size: 2, dt: 4, op: 8, result: 2}},
		"result buffer of 2 bytes is shorter than the 8-byte operation"},
	{"CompareAndSwap 2-byte swap", false, []call{lockTo1, {kind: kCAS, target: 1, data: 2, result: 8}},
		"origin buffer of 2 bytes is shorter than the 8-byte operation"},
	{"Accumulate AccOp(99)", false, []call{lockTo1, {kind: kAcc, target: 1, size: 8, op: 99, data: 8}},
		"unknown operator 99"},
	{"Accumulate OpBand on TFloat64", false, []call{lockTo1, {kind: kAcc, target: 1, size: 8,
		dt: int8(TFloat64), op: int8(OpBand), data: 8}}, "operator 4 not defined for float64"},
	{"Accumulate DType(99)", false, []call{lockTo1, {kind: kAcc, target: 1, size: 8, dt: 99, data: 8}},
		"unknown datatype 99"},
	{"Put(99) in Lock(1)", false, []call{lockTo1, {kind: kPut, target: 99, size: 1}}, "RMA target 99 out of range (n=2)"},
	{"Flush(-1)", false, []call{lockTo1, {kind: kFlush, target: -1}}, "Flush target -1 out of range (n=2)"},
	{"Flush(99)", false, []call{lockTo1, {kind: kFlush, target: 99}}, "Flush target 99 out of range (n=2)"},
	{"Flush(-5)", false, []call{lockTo1, {kind: kFlush, target: -5}}, "Flush target -5 out of range (n=2)"},
	{"FlushLocal(99)", false, []call{lockTo1, {kind: kFlushLocal, target: 99}}, "FlushLocal target 99 out of range (n=2)"},
	{"IFlush(-1)", false, []call{lockTo1, {kind: kIFlush, target: -1}}, "IFlush target -1 out of range (n=2)"},
	{"IFlushLocal(-1)", false, []call{lockTo1, {kind: kIFlushLocal, target: -1}}, "IFlushLocal target -1 out of range (n=2)"},
	{"WaitSignal(99, 1)", false, []call{{kind: kWaitSignal, target: 99, size: 1}}, "WaitSignal source 99 out of range (n=2)"},
	{"PeerState(99)", false, []call{{kind: kPeerState, target: 99}}, "PeerState peer 99 out of range (n=2)"},
	// MPI_ERR_ASSERT: bits outside AssertNoPrecede|AssertNoSucceed, raised
	// before the mode's own refusal, so flush mode names the assertion too.
	{"Fence(1)", false, []call{{kind: kFence, off: 1}}, "fence assertion 1 has bits outside AssertNoPrecede|AssertNoSucceed"},
	{"IFence(8)", false, []call{{kind: kIFence, off: 8}}, "fence assertion 8 has bits outside AssertNoPrecede|AssertNoSucceed"},
	{"Fence(-1)", false, []call{{kind: kFence, off: -1}}, "fence assertion -1 has bits outside AssertNoPrecede|AssertNoSucceed"},
	{"Accumulate OpNoOp", false, []call{lockTo1, {kind: kAcc, target: 1, size: 8, op: int8(OpNoOp), data: 8}},
		"operator OpNoOp is defined only for get-accumulate and fetch-and-op"},
}

// TestPeerChecksBothForms: every misuse row raises at the call, on the
// calling rank, in every mode that admits the call and in both rank forms:
// never a Go runtime error, a panic out of Run, a clean run or the watchdog.
func TestPeerChecksBothForms(t *testing.T) {
	for _, row := range misuseRows {
		for _, mode := range []Mode{ModeNew, ModeVanilla, ModeFlush} {
			if row.gats && mode == ModeFlush {
				continue // flush mode refuses GATS before any check
			}
			for _, tasks := range []bool{false, true} {
				err, escaped := runCalls(mode, tasks, encodeCalls(0, row.calls...))
				switch want := "core: rank 0 win 0: " + row.want; {
				case escaped != nil:
					t.Errorf("%s %s tasks=%t: panicked out of Run: %v", row.name, mode, tasks, escaped)
				case err == nil || !strings.Contains(err.Error(), want):
					t.Errorf("%s %s tasks=%t: run ended with %v, want the raise %q", row.name, mode, tasks, err, want)
				}
			}
		}
	}
}

// FuzzWindowCalls runs short call sequences with arbitrary arguments in
// every mode and both rank forms. Whatever the calls, the run ends in nil, a
// core raise, an *RMAError or a watchdog or deadlock report: never a Go
// runtime error and never a panic out of Run.
func FuzzWindowCalls(f *testing.F) {
	for _, row := range misuseRows {
		f.Add(encodeCalls(0, row.calls...))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1+16*callBytes {
			return // short sequences: a run must stay in milliseconds
		}
		for _, mode := range []Mode{ModeNew, ModeVanilla, ModeFlush} {
			for _, tasks := range []bool{false, true} {
				err, escaped := runCalls(mode, tasks, prog)
				if bad := misuseVerdict(err, escaped); bad != "" {
					t.Fatalf("%s tasks=%t: %s", mode, tasks, bad)
				}
			}
		}
	})
}

// misuseVerdict is FuzzWindowCalls's property: "" for an acceptable end of
// a run, else what went wrong. A rank that panicked must have raised.
func misuseVerdict(err error, escaped any) string {
	var rma *RMAError
	switch {
	case escaped != nil:
		return fmt.Sprintf("panicked out of Run: %v", escaped)
	case err == nil, errors.As(err, &rma):
		return ""
	}
	switch msg := err.Error(); {
	case strings.Contains(msg, "runtime error"):
		return "Go runtime error: " + msg
	case strings.Contains(msg, "panicked: core: rank "),
		strings.HasPrefix(msg, "sim: deadlock"), strings.HasPrefix(msg, "sim: watchdog"):
		return ""
	}
	return "unclassified error: " + err.Error()
}
