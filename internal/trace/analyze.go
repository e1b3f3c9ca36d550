package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// PatternReport quantifies one inefficiency pattern across a trace.
type PatternReport struct {
	Name      string
	Instances int      // epochs where the pattern contributed wait time
	Total     sim.Time // summed wait attributed to the pattern
	Worst     sim.Time // largest single contribution
}

// Report is the outcome of analyzing a trace.
type Report struct {
	Epochs   int
	Patterns []PatternReport
}

// epochTimeline is one epoch reconstructed from its lifecycle events.
type epochTimeline struct {
	rank                               int
	win                                int64
	seq                                int64
	class                              EpochClass
	open, activate, closeApp, complete sim.Time
	hasClose, hasComplete              bool
	lastGrant, lastDone, lastDataIn    sim.Time // arrivals within the epoch's lifetime
	grantAfterClose, doneAfterClose    bool
}

// Analyze reconstructs epoch timelines and decomposes closing-wait times
// into the paper's patterns:
//
//   - Late Post: an access-role epoch whose last needed grant arrived
//     after its closing call — the wait until that grant is Late Post.
//   - Early Wait: an exposure epoch closed (Wait called) before all done
//     packets were in; the whole closing wait is Early Wait.
//   - Late Complete: the portion of an exposure epoch's closing wait
//     between the last incoming transfer and the final done packet — data
//     was already there, the origin was late closing.
//   - Wait at Fence: the closing wait of fence epochs (barrier semantics
//     make any late peer stall everyone).
//   - Late Unlock: for lock epochs, the wait between activation (request
//     sent) and the grant — time spent queued behind the current holder.
func Analyze(events []Event) Report {
	type key struct {
		rank int
		win  int64
		seq  int64
	}
	timelines := make(map[key]*epochTimeline)
	order := []key{}
	get := func(k key) *epochTimeline {
		tl, ok := timelines[k]
		if !ok {
			tl = &epochTimeline{rank: k.rank, win: k.win, seq: k.seq}
			timelines[k] = tl
			order = append(order, k)
		}
		return tl
	}
	for _, e := range events {
		switch e.Kind {
		case EpochOpen:
			tl := get(key{e.Rank, e.Win, e.Epoch})
			tl.open = e.T
			tl.class = e.Class
		case EpochActivate:
			get(key{e.Rank, e.Win, e.Epoch}).activate = e.T
		case EpochCloseApp:
			tl := get(key{e.Rank, e.Win, e.Epoch})
			tl.closeApp = e.T
			tl.hasClose = true
		case EpochComplete:
			tl := get(key{e.Rank, e.Win, e.Epoch})
			tl.complete = e.T
			tl.hasComplete = true
		case GrantRecv, DoneRecv, DataIn:
			// Window-level arrival: attribute to every epoch of the window
			// that is open-but-incomplete at this instant.
			for _, k := range order {
				if k.rank != e.Rank || k.win != e.Win {
					continue
				}
				tl := timelines[k]
				if tl.hasComplete && e.T > tl.complete {
					continue
				}
				switch e.Kind {
				case GrantRecv:
					tl.lastGrant = e.T
					if tl.hasClose && e.T > tl.closeApp {
						tl.grantAfterClose = true
					}
				case DoneRecv:
					tl.lastDone = e.T
					if tl.hasClose && e.T > tl.closeApp {
						tl.doneAfterClose = true
					}
				case DataIn:
					tl.lastDataIn = e.T
				}
			}
		}
	}

	latePost := PatternReport{Name: "Late Post"}
	earlyWait := PatternReport{Name: "Early Wait"}
	lateComplete := PatternReport{Name: "Late Complete"}
	waitAtFence := PatternReport{Name: "Wait at Fence"}
	lateUnlock := PatternReport{Name: "Late Unlock"}

	add := func(p *PatternReport, d sim.Time) {
		if d <= 0 {
			return
		}
		p.Instances++
		p.Total += d
		if d > p.Worst {
			p.Worst = d
		}
	}

	for _, k := range order {
		tl := timelines[k]
		if !tl.hasClose || !tl.hasComplete {
			continue
		}
		closeWait := tl.complete - tl.closeApp
		switch tl.class {
		case ClassAccess:
			if tl.grantAfterClose {
				add(&latePost, tl.lastGrant-tl.closeApp)
			}
		case ClassExposure:
			if tl.doneAfterClose {
				add(&earlyWait, closeWait)
				// Within the Early Wait, time after the last incoming
				// transfer is the origin's Late Complete.
				from := tl.closeApp
				if tl.lastDataIn > from {
					from = tl.lastDataIn
				}
				add(&lateComplete, tl.lastDone-from)
			}
		case ClassFence:
			if tl.doneAfterClose {
				add(&waitAtFence, tl.lastDone-tl.closeApp)
			}
		case ClassLock, ClassLockAll:
			if tl.lastGrant > tl.activate {
				add(&lateUnlock, tl.lastGrant-tl.activate)
			}
		}
	}

	return Report{
		Epochs:   len(order),
		Patterns: []PatternReport{latePost, earlyWait, lateComplete, waitAtFence, lateUnlock},
	}
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
