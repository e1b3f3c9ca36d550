package core

import (
	"fmt"
	"strings"

	"repro/internal/mpi"
)

// Mode selects the RMA implementation a window runs on.
type Mode int

const (
	// ModeNew is the paper's redesigned RMA stack: eager per-target issue,
	// deferred-epoch queue, nonblocking synchronizations available.
	ModeNew Mode = iota
	// ModeVanilla models MVAPICH 2-1.9: lazy lock acquisition (the whole
	// lock epoch executes inside Unlock) and closing synchronizations that
	// wait for all targets to be ready before issuing any transfer.
	// Nonblocking synchronizations are not available in this mode.
	ModeVanilla
	// ModeFlush is the epochless passive-target style of Gerstenberger et
	// al. (foMPI) and the MPI-3 lock_all+flush idiom (sync_flushmode.go):
	// RMA calls issue at once, the flush family completes them, and locks
	// only exclude. Fence and GATS are not available in this mode.
	ModeFlush
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNew:
		return "new"
	case ModeVanilla:
		return "vanilla"
	case ModeFlush:
		return "flush"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Nonblocking reports whether the mode has the I-form synchronizations.
func (m Mode) Nonblocking() bool { return modes[m].nonblocking }

// modeRules is one row of the seam's table, what a mode decides by value. A
// window keeps a pointer to its row, so the engine's per-sweep tests make no
// interface call. The refusal table is families, nonblocking and noCheck:
// every synchronization entry point consults them (Window.allow) before it
// builds or touches any epoch.
type modeRules struct {
	mode                 Mode
	families             uint8 // epoch families admitted, bit k for EpochKind k
	nonblocking, noCheck bool  // I-forms and MPI_MODE_NOCHECK locks admitted
	engineDriven         bool  // the engine, not the closing calls alone, activates and issues
	localGate            bool  // signal-transport GATS puts settle at the wire (settlesAtWire)
}

var modes = [...]modeRules{
	ModeNew:     {ModeNew, allFamilies, true, true, true, true},
	ModeVanilla: {ModeVanilla, allFamilies, false, false, false, false},
	ModeFlush:   {ModeFlush, 1<<EpochLock | 1<<EpochLockAll, true, true, true, false},
}

const allFamilies = 1<<(EpochLockAll+1) - 1 // the bit of every EpochKind

// Mode returns the window's implementation mode.
func (w *Window) Mode() Mode { return w.rules.mode }

// allow raises unless the window's mode admits a synchronization of family
// k, made as an I-form when nonblocking, asserting MPI_MODE_NOCHECK when
// noCheck.
func (w *Window) allow(k EpochKind, nonblocking, noCheck bool) {
	switch r := w.rules; {
	case r.families&(1<<k) == 0:
		w.raisef("%s synchronizations are unavailable in %s mode", k, r.mode)
	case nonblocking && !r.nonblocking:
		w.raisef("nonblocking synchronizations are unavailable in %s mode", r.mode)
	case noCheck && !r.noCheck:
		w.raisef("MPI_MODE_NOCHECK locks are unavailable in %s mode", r.mode)
	}
}

// modeImpl is the seam a window's mode plugs in at, chosen at creation
// (newModeImpl). newMode, the paper's design, is the default the others
// embed: vanillaMode overrides it with MVAPICH's lazy, staged calls
// (vanilla.go), *flushState with foMPI's locks and one perpetual epoch.
type modeImpl interface {
	// Blocking synchronizations (the default waits on the I-form), then the
	// passive-target I-forms. A target of -1 is the lock-all epoch.
	openGATS(w *Window, kind EpochKind, group []int) // Start, Post
	closeGATS(w *Window, kind EpochKind)             // Complete, WaitEpoch
	fence(w *Window, assert FenceAssert)
	lock(w *Window, target int, exclusive, noCheck bool)
	unlock(w *Window, target int)
	ilock(w *Window, target int, exclusive, noCheck bool) *mpi.Request
	iunlock(w *Window, target int) *mpi.Request

	// The epoch an RMA call toward t joins, and the call's op: issued now,
	// recorded, or left for the closing synchronization.
	accessEpoch(w *Window, t int) *Epoch
	admit(w *Window, ep *Epoch, o *rmaOp)
	// Flushes: a blocking flush first forces lazy epochs (false: pending).
	forceIssue(w *Window, target int, from *Epoch) bool
	requirePassive(w *Window, t int)

	quiesced(w *Window) bool
	abortPeer(w *Window, peer int)
	dump(w *Window, b *strings.Builder)
}

// newModeImpl chooses the implementation and the table row of the window's
// mode.
func newModeImpl(w *Window, opt WinOptions) (modeImpl, *modeRules) {
	switch opt.Mode {
	case ModeNew:
		return newMode{}, &modes[ModeNew]
	case ModeVanilla:
		return vanillaMode{}, &modes[ModeVanilla]
	case ModeFlush:
		return newFlushState(w, opt.FlushMaster), &modes[ModeFlush]
	}
	w.raisef("unknown %s", opt.Mode)
	return nil, nil
}

// newMode is the paper's design; vanillaMode is the MVAPICH 2-1.9 baseline
// (vanilla.go).
type (
	newMode     struct{}
	vanillaMode struct{ newMode }
)

func (newMode) forceIssue(*Window, int, *Epoch) bool { return true }

// Info carries the window's info-object key/value pairs: the four Boolean
// progress-engine optimization flags of Section VI-B. All default to false
// ("justifiably, all these flags are disabled by default").
type Info struct {
	// AAAR (MPI_WIN_ACCESS_AFTER_ACCESS_REORDER): an origin-side epoch may
	// activate and progress while an immediately preceding origin-side
	// epoch is still active.
	AAAR bool
	// AAER (MPI_WIN_ACCESS_AFTER_EXPOSURE_REORDER): an origin-side epoch
	// may progress past a still-active preceding exposure epoch.
	AAER bool
	// EAER (MPI_WIN_EXPOSURE_AFTER_EXPOSURE_REORDER): a target-side epoch
	// may progress past a still-active preceding target-side epoch.
	EAER bool
	// EAAR (MPI_WIN_EXPOSURE_AFTER_ACCESS_REORDER): a target-side epoch may
	// progress past a still-active preceding origin-side epoch.
	EAAR bool
}

// DType is the element datatype of typed RMA operations.
type DType int

// Supported element datatypes.
const (
	TInt64 DType = iota
	TUint64
	TFloat64
	TByte
)

// Size returns the element size in bytes, 0 for a DType outside the
// enumeration.
func (t DType) Size() int {
	switch t {
	case TInt64, TUint64, TFloat64:
		return 8
	case TByte:
		return 1
	}
	return 0
}

// AccOp is the combining operator of accumulate-class operations.
type AccOp int

// Supported accumulate operators. OpReplace makes Accumulate behave as an
// atomic put; OpNoOp makes GetAccumulate behave as an atomic get.
const (
	OpSum AccOp = iota
	OpProd
	OpMax
	OpMin
	OpBand
	OpBor
	OpBxor
	OpReplace
	OpNoOp
)

// EpochKind identifies the synchronization family an epoch belongs to.
type EpochKind int

// Epoch kinds.
const (
	EpochFence    EpochKind = iota
	EpochAccess             // GATS origin side (Start/Complete)
	EpochExposure           // GATS target side (Post/Wait)
	EpochLock               // passive target, single peer (Lock/Unlock)
	EpochLockAll            // passive target, all peers (LockAll/UnlockAll)
)

// String implements fmt.Stringer.
func (k EpochKind) String() string {
	switch k {
	case EpochFence:
		return "fence"
	case EpochAccess:
		return "access"
	case EpochExposure:
		return "exposure"
	case EpochLock:
		return "lock"
	case EpochLockAll:
		return "lock_all"
	}
	return "unknown"
}

// isAccessRole reports whether the kind plays an origin/access role.
func (k EpochKind) isAccessRole() bool {
	return k == EpochAccess || k == EpochLock || k == EpochLockAll || k == EpochFence
}

// isExposureRole reports whether the kind plays a target/exposure role.
func (k EpochKind) isExposureRole() bool {
	return k == EpochExposure || k == EpochFence
}

// reorderExcluded reports whether the kind is excluded from the Section
// VI-B optimization flags (fence and lock_all epochs always serialize).
func (k EpochKind) reorderExcluded() bool {
	return k == EpochFence || k == EpochLockAll
}
