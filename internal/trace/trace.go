// Package trace records one Span per RMA epoch and quantifies the paper's
// inefficiency patterns from them, in the spirit of the MPI-2 RMA pattern
// analyses the paper builds on (Kühnal et al. and Hermanns et al., the
// paper's refs [3] and [4]). Every span splits its epoch's latency exactly
// into Parts along its critical path, and Late Post, Early Wait, Late
// Complete, Wait at Fence and Late Unlock are views over the spans (Analyze).
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
)

// EpochClass mirrors the synchronization family of the epoch (kept as a
// string to avoid importing internal/core).
type EpochClass string

// Epoch classes as reported by internal/core.
const (
	ClassFence    EpochClass = "fence"
	ClassAccess   EpochClass = "access"
	ClassExposure EpochClass = "exposure"
	ClassLock     EpochClass = "lock"
	ClassLockAll  EpochClass = "lock_all"
)

// Unset is the value of a stamp the epoch never reached.
const Unset sim.Time = -1

// Span is one epoch's record, opened at the opening call and stamped in place
// at each point of Section VI's two lifetimes: the opening call, activation,
// the closing call, the whole group's grant (access side), every origin's
// done and the landing of the last transfer it granted (exposure side),
// completion or abort, and the issue and landing of its last op to settle.
type Span struct {
	Rank  int
	Win   int64
	Epoch int64 // program-order index within (Rank, Win)
	Class EpochClass

	Open, Activate, Close, Grant, Done, Data, Complete, Issue, Land sim.Time

	// ActOrd and EndOrd number Activate and Complete in the window's order
	// of both, which is exact where the times tie.
	ActOrd, EndOrd int64
	Aborted        bool

	// Parts charges every nanosecond of Complete − Open to one Part
	// (Recorder.Events fills it; zero while the epoch is incomplete).
	Parts [NumParts]sim.Time
}

// Part names one component of an epoch's latency: a leg of the critical
// path is charged to the part of the stamp it ends at.
type Part int

const (
	Deferred  Part = iota // until Activate: queued behind earlier epochs
	GrantWait             // until Grant, or an Issue after Close: a target had not granted
	App                   // until Close or Issue: the application had not called
	Network               // until Land: the last op in flight
	RemoteAck             // until Complete: acks and done posting
	PeerLate              // until Done: the origins had not closed
	NumParts
)

// String implements fmt.Stringer.
func (p Part) String() string {
	return [NumParts]string{"deferred", "grant wait", "app", "network", "remote ack", "peer late"}[p]
}

// The critical-path graph over the stamps: each waits on the latest of its
// dependencies at or before it, and one with none such waits on Open.
const nOpen, nActivate, nClose, nGrant, nDone, nIssue, nLand, nComplete = 0, 1, 2, 3, 4, 5, 6, 7

var (
	nodePart = [...]Part{nActivate: Deferred, nClose: App, nGrant: GrantWait, nDone: PeerLate,
		nIssue: App, nLand: Network, nComplete: RemoteAck}
	nodeDeps = [...][]int{nGrant: {nActivate}, nDone: {nActivate}, nIssue: {nGrant, nClose, nActivate},
		nLand: {nIssue}, nComplete: {nLand, nIssue, nDone, nGrant, nClose}}
)

// split fills Parts by walking back from Complete along the latest-arriving
// dependency, so the parts sum to Complete − Open by construction; a stamp
// before Open shows as a negative part.
func (s *Span) split() {
	t := [...]sim.Time{s.Open, s.Activate, s.Close, s.Grant, s.Done, s.Issue, s.Land, s.Complete}
	s.Parts = [NumParts]sim.Time{}
	for n := nComplete; n != nOpen; {
		next := nOpen
		for _, d := range nodeDeps[n] {
			if t[d] != Unset && t[d] <= t[n] && (next == nOpen || t[d] > t[next]) {
				next = d
			}
		}
		part := nodePart[n]
		if n == nIssue && next == nClose {
			part = GrantWait // the application was done: its op's own target granted late
		}
		s.Parts[part] += t[n] - t[next]
		n = next
	}
}

// Recorder holds spans in per-rank buckets. A span is opened and stamped only
// from its rank's context, so a bucket needs no lock on a sharded kernel.
type Recorder struct{ byRank [][]Span }

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetRanks pre-sizes the recorder for a job of n ranks. Buckets otherwise
// grow on first use, which only a single-threaded recorder may do: one
// attached to a sharded simulation must be sized before any Open.
func (r *Recorder) SetRanks(n int) {
	if r.Len() > 0 {
		panic("trace: SetRanks on a non-empty recorder")
	}
	r.byRank = make([][]Span, n)
}

// Open appends s with every stamp after Open Unset and returns its index in
// its rank's bucket.
func (r *Recorder) Open(s Span) int {
	for s.Rank >= len(r.byRank) {
		r.byRank = append(r.byRank, nil)
	}
	s.Activate, s.Close, s.Grant, s.Done, s.Data, s.Complete, s.Issue, s.Land =
		Unset, Unset, Unset, Unset, Unset, Unset, Unset, Unset
	r.byRank[s.Rank] = append(r.byRank[s.Rank], s)
	return len(r.byRank[s.Rank]) - 1
}

// At returns span i of rank's bucket to stamp, good until the rank's next Open.
func (r *Recorder) At(rank, i int) *Span { return &r.byRank[rank][i] }

// Events returns every span, Parts filled, ordered by Open with rank as the
// tie-break; a rank's spans keep their opening order, which the sharded
// kernel keeps bit-identical to serial.
func (r *Recorder) Events() []Span {
	out := slices.Concat(r.byRank...)
	slices.SortStableFunc(out, func(a, b Span) int { return cmp.Compare(a.Open, b.Open) })
	for i := range out {
		if out[i].Complete != Unset {
			out[i].split()
		}
	}
	return out
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	n := 0
	for _, b := range r.byRank {
		n += len(b)
	}
	return n
}

// PatternReport quantifies one inefficiency pattern across a trace.
type PatternReport struct {
	Name      string
	Instances int      // epochs where the pattern contributed wait time
	Total     sim.Time // summed wait attributed to the pattern
	Worst     sim.Time // largest single contribution
}

// add counts one epoch's contribution d, if it has one.
func (p *PatternReport) add(d sim.Time) {
	if d > 0 {
		p.Instances, p.Total, p.Worst = p.Instances+1, p.Total+d, max(p.Worst, d)
	}
}

// Report is the outcome of analyzing a trace.
type Report struct {
	Epochs   int
	Patterns []PatternReport
}

// Analyze decomposes the closing waits of the completed epochs among spans
// into the paper's patterns, each a view over one span's own stamps.
func Analyze(spans []Span) Report {
	ps := []PatternReport{{Name: "Late Post"}, {Name: "Early Wait"}, {Name: "Late Complete"},
		{Name: "Wait at Fence"}, {Name: "Late Unlock"}}
	for _, s := range spans {
		if s.Close == Unset || s.Complete == Unset || s.Aborted {
			continue
		}
		switch s.Class {
		case ClassAccess: // Late Post: the group granted after the closing call
			ps[0].add(s.Grant - s.Close)
		case ClassExposure:
			if s.Done > s.Close { // Early Wait: Wait called before every done was in
				ps[1].add(s.Complete - s.Close)
				// Late Complete: the data was in, the origins were late closing.
				ps[2].add(s.Done - max(s.Close, s.Data))
			}
		case ClassFence: // Wait at Fence: barrier semantics make any late peer stall everyone
			ps[3].add(s.Done - s.Close)
		case ClassLock, ClassLockAll: // Late Unlock: queued behind the holder
			ps[4].add(s.Grant - s.Activate)
		}
	}
	return Report{Epochs: len(spans), Patterns: ps}
}

// Pattern returns the report for a named pattern (nil if unknown).
func (r Report) Pattern(name string) *PatternReport {
	for i := range r.Patterns {
		if r.Patterns[i].Name == name {
			return &r.Patterns[i]
		}
	}
	return nil
}

// String renders the report as an aligned table, worst offenders first.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "inefficiency-pattern analysis over %d epochs\n", r.Epochs)
	ps := append([]PatternReport(nil), r.Patterns...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Total > ps[j].Total })
	fmt.Fprintf(&b, "  %-14s %9s %12s %12s\n", "pattern", "instances", "total(us)", "worst(us)")
	for _, p := range ps {
		fmt.Fprintf(&b, "  %-14s %9d %12d %12d\n",
			p.Name, p.Instances, p.Total/sim.Microsecond, p.Worst/sim.Microsecond)
	}
	return b.String()
}
