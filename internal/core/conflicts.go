package core

// Conflict checking — a debugging aid for Section VI-C. When the reorder
// flags are enabled, correctness rests on the programmer's guarantee that
// "the RMA activities of concurrently progressed epochs involve strictly
// disjoint memory regions". With WinOptions.CheckConflicts the middleware
// verifies that guarantee: every RMA call's target range is compared
// against the ranges of every other still-incomplete epoch on the same
// window, and an overlap involving at least one write aborts the run.
// The check is origin-side and O(ops²) per window — strictly a debug tool.

// opExtent is one recorded access range.
type opExtent struct {
	target int
	off    int64
	size   int64
	writes bool
}

// extentOf derives the conservative extent of an op (vector ops use their
// full span — a sound overapproximation of the strided footprint).
func extentOf(o *rmaOp) opExtent {
	size := o.size
	if o.vec != (vecShape{}) {
		size = o.vec.span()
	}
	return opExtent{
		target: o.target,
		off:    o.off,
		size:   size,
		writes: o.class != opGet,
	}
}

// overlaps reports whether two extents conflict (same target, ranges
// intersect, at least one side writing).
func (a opExtent) overlaps(b opExtent) bool {
	if a.target != b.target || (!a.writes && !b.writes) {
		return false
	}
	return a.off < b.off+b.size && b.off < a.off+a.size
}

// checkConflict validates a new op against every other incomplete epoch
// of the window and records its extent on its epoch.
func (w *Window) checkConflict(o *rmaOp) {
	ext := extentOf(o)
	for _, other := range w.epochs {
		if other == o.ep || other.completed {
			continue
		}
		for _, prev := range other.extents {
			if ext.overlaps(prev) {
				w.raisef(
					"conflict check failed: epoch %d accesses [%d,%d) on target %d, overlapping epoch %d's access [%d,%d) — concurrently progressed epochs must touch strictly disjoint memory (Section VI-C)",
					o.ep.seq, ext.off, ext.off+ext.size, ext.target,
					other.seq, prev.off, prev.off+prev.size)
			}
		}
	}
	o.ep.extents = append(o.ep.extents, ext)
}
