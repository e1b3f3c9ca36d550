package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

const us = sim.Microsecond

// synth builds an event stream for one (rank, win, epoch).
func ev(t sim.Time, kind Kind, class EpochClass, epoch int64) Event {
	return Event{T: t, Rank: 0, Win: 0, Epoch: epoch, Class: class, Kind: kind, Peer: 1}
}

func TestAnalyzeLatePost(t *testing.T) {
	events := []Event{
		ev(0, EpochOpen, ClassAccess, 0),
		ev(0, EpochActivate, ClassAccess, 0),
		ev(10*us, EpochCloseApp, ClassAccess, 0),
		{T: 500 * us, Rank: 0, Win: 0, Epoch: -1, Kind: GrantRecv, Peer: 1},
		ev(840*us, EpochComplete, ClassAccess, 0),
	}
	rep := Analyze(events)
	lp := rep.Pattern("Late Post")
	if lp.Instances != 1 {
		t.Fatalf("Late Post instances %d, want 1", lp.Instances)
	}
	if lp.Total != 490*us {
		t.Fatalf("Late Post total %d us, want 490", lp.Total/us)
	}
}

func TestAnalyzeEarlyWaitAndLateComplete(t *testing.T) {
	events := []Event{
		ev(0, EpochOpen, ClassExposure, 0),
		ev(0, EpochActivate, ClassExposure, 0),
		ev(5*us, EpochCloseApp, ClassExposure, 0),
		{T: 300 * us, Rank: 0, Win: 0, Epoch: -1, Kind: DataIn, Peer: 1, Size: 1024},
		{T: 900 * us, Rank: 0, Win: 0, Epoch: -1, Kind: DoneRecv, Peer: 1},
		ev(900*us, EpochComplete, ClassExposure, 0),
	}
	rep := Analyze(events)
	if ew := rep.Pattern("Early Wait"); ew.Total != 895*us {
		t.Fatalf("Early Wait %d us, want 895", ew.Total/us)
	}
	// Data landed at 300us, the done only at 900us: 600us of Late Complete.
	if lc := rep.Pattern("Late Complete"); lc.Total != 600*us {
		t.Fatalf("Late Complete %d us, want 600", lc.Total/us)
	}
}

func TestAnalyzeWaitAtFence(t *testing.T) {
	events := []Event{
		ev(0, EpochOpen, ClassFence, 0),
		ev(0, EpochActivate, ClassFence, 0),
		ev(10*us, EpochCloseApp, ClassFence, 0),
		{T: 700 * us, Rank: 0, Win: 0, Epoch: -1, Kind: DoneRecv, Peer: 1},
		ev(700*us, EpochComplete, ClassFence, 0),
	}
	rep := Analyze(events)
	if wf := rep.Pattern("Wait at Fence"); wf.Total != 690*us {
		t.Fatalf("Wait at Fence %d us, want 690", wf.Total/us)
	}
}

func TestAnalyzeLateUnlock(t *testing.T) {
	events := []Event{
		ev(0, EpochOpen, ClassLock, 0),
		ev(0, EpochActivate, ClassLock, 0),
		{T: 400 * us, Rank: 0, Win: 0, Epoch: -1, Kind: GrantRecv, Peer: 1},
		ev(450*us, EpochCloseApp, ClassLock, 0),
		ev(460*us, EpochComplete, ClassLock, 0),
	}
	rep := Analyze(events)
	if lu := rep.Pattern("Late Unlock"); lu.Total != 400*us {
		t.Fatalf("Late Unlock %d us, want 400", lu.Total/us)
	}
}

func TestAnalyzeCleanEpochsShowNoPatterns(t *testing.T) {
	events := []Event{
		ev(0, EpochOpen, ClassAccess, 0),
		ev(0, EpochActivate, ClassAccess, 0),
		{T: 2 * us, Rank: 0, Win: 0, Epoch: -1, Kind: GrantRecv, Peer: 1},
		ev(10*us, EpochCloseApp, ClassAccess, 0),
		ev(11*us, EpochComplete, ClassAccess, 0),
	}
	rep := Analyze(events)
	for _, p := range rep.Patterns {
		if p.Instances != 0 {
			t.Fatalf("pattern %s reported %d instances on a clean trace", p.Name, p.Instances)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := Analyze([]Event{
		ev(0, EpochOpen, ClassAccess, 0),
		ev(0, EpochActivate, ClassAccess, 0),
		ev(10*us, EpochCloseApp, ClassAccess, 0),
		{T: 500 * us, Rank: 0, Win: 0, Epoch: -1, Kind: GrantRecv, Peer: 1},
		ev(840*us, EpochComplete, ClassAccess, 0),
	})
	out := rep.String()
	for _, want := range []string{"Late Post", "instances", "490"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	if r.Len() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	r.Record(Event{T: 1})
	r.Record(Event{T: 2})
	if r.Len() != 2 || r.Events()[1].T != 2 {
		t.Fatal("recorder lost events")
	}
	// Buckets grow by rank; the merge is (time, rank) whatever the record
	// order, and a pre-sized recorder gives the same stream.
	r.Record(Event{T: 2, Rank: 3})
	r.Record(Event{T: 1, Rank: 2})
	sized := NewRecorder()
	sized.SetRanks(4)
	var got []int
	for _, e := range r.Events() {
		sized.Record(e)
		got = append(got, e.Rank)
	}
	if want := []int{0, 2, 0, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged rank order %v, want %v", got, want)
	}
	if !reflect.DeepEqual(sized.Events(), r.Events()) {
		t.Fatal("pre-sized recorder merges differently")
	}
	var buf bytes.Buffer
	if err := sized.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if back, err := readJSON(&buf); err != nil || len(back) != 4 {
		t.Fatalf("JSON of a pre-sized recorder read back %d events (%v), want 4", len(back), err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetRanks on a non-empty recorder should panic")
		}
	}()
	r.SetRanks(8)
}

func TestEventString(t *testing.T) {
	e := Event{T: 5 * us, Rank: 3, Win: 1, Epoch: 2, Class: ClassLock, Kind: GrantRecv, Peer: 7}
	s := e.String()
	for _, want := range []string{"rank=3", "lock", "grant", "peer=7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{EpochOpen, EpochActivate, EpochCloseApp, EpochComplete, GrantRecv, DoneRecv, DataIn, LockGranted}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("kind %d has bad/duplicate name %q", k, s)
		}
		seen[s] = true
	}
}
