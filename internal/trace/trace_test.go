package trace

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

const us = sim.Microsecond

// span builds a span of rank 0, window 0 with the four lifecycle stamps set
// and every other stamp Unset.
func span(class EpochClass, open, activate, close, complete sim.Time) Span {
	r := NewRecorder()
	s := r.At(0, r.Open(Span{Class: class, Open: open}))
	s.Activate, s.Close, s.Complete = activate, close, complete
	return *s
}

func TestAnalyzeLatePost(t *testing.T) {
	s := span(ClassAccess, 0, 0, 10*us, 840*us)
	s.Grant = 500 * us
	lp := Analyze([]Span{s}).Pattern("Late Post")
	if lp.Instances != 1 {
		t.Fatalf("Late Post instances %d, want 1", lp.Instances)
	}
	if lp.Total != 490*us {
		t.Fatalf("Late Post total %d us, want 490", lp.Total/us)
	}
}

func TestAnalyzeEarlyWaitAndLateComplete(t *testing.T) {
	s := span(ClassExposure, 0, 0, 5*us, 900*us)
	s.Data, s.Done = 300*us, 900*us
	rep := Analyze([]Span{s})
	if ew := rep.Pattern("Early Wait"); ew.Total != 895*us {
		t.Fatalf("Early Wait %d us, want 895", ew.Total/us)
	}
	// Data landed at 300us, the done only at 900us: 600us of Late Complete.
	if lc := rep.Pattern("Late Complete"); lc.Total != 600*us {
		t.Fatalf("Late Complete %d us, want 600", lc.Total/us)
	}
}

func TestAnalyzeWaitAtFence(t *testing.T) {
	s := span(ClassFence, 0, 0, 10*us, 700*us)
	s.Done = 700 * us
	if wf := Analyze([]Span{s}).Pattern("Wait at Fence"); wf.Total != 690*us {
		t.Fatalf("Wait at Fence %d us, want 690", wf.Total/us)
	}
}

func TestAnalyzeLateUnlock(t *testing.T) {
	s := span(ClassLock, 0, 0, 450*us, 460*us)
	s.Grant = 400 * us
	if lu := Analyze([]Span{s}).Pattern("Late Unlock"); lu.Total != 400*us {
		t.Fatalf("Late Unlock %d us, want 400", lu.Total/us)
	}
}

func TestAnalyzeCleanEpochsShowNoPatterns(t *testing.T) {
	s := span(ClassAccess, 0, 0, 10*us, 11*us)
	s.Grant = 2 * us
	aborted := span(ClassExposure, 0, 0, 5*us, 900*us)
	aborted.Done, aborted.Aborted = 900*us, true
	open := span(ClassFence, 0, 0, 10*us, Unset)
	for _, p := range Analyze([]Span{s, aborted, open}).Patterns {
		if p.Instances != 0 {
			t.Fatalf("pattern %s reported %d instances on a clean trace", p.Name, p.Instances)
		}
	}
}

// TestSplit walks the critical path of a Late Post access epoch: deferred
// 20, grant wait 480 behind the late target, the op issued at once and in
// flight 30, acked 10 later; the closing call at 40 is off the path.
func TestSplit(t *testing.T) {
	s := span(ClassAccess, 0, 20*us, 40*us, 540*us)
	s.Grant, s.Issue, s.Land = 500*us, 500*us, 530*us
	s.split()
	want := [NumParts]sim.Time{Deferred: 20 * us, GrantWait: 480 * us, Network: 30 * us, RemoteAck: 10 * us}
	if s.Parts != want {
		t.Fatalf("parts %v, want %v", s.Parts, want)
	}
	// A late close moves the path onto the application; a stamp before the
	// open shows as a negative part, whatever the path.
	s.Close = 600 * us
	s.Complete = 601 * us
	s.split()
	if want := [NumParts]sim.Time{App: 600 * us, RemoteAck: us}; s.Parts != want {
		t.Fatalf("late-close parts %v, want %v", s.Parts, want)
	}
	// An op issued after the close waited for its own target's grant, even
	// while the group's last grant was still to come.
	s.Close, s.Grant, s.Issue, s.Land, s.Complete = 40*us, 900*us, 500*us, 530*us, 540*us
	s.split()
	if want := [NumParts]sim.Time{App: 40 * us, GrantWait: 460 * us, Network: 30 * us, RemoteAck: 10 * us}; s.Parts != want {
		t.Fatalf("partial-grant parts %v, want %v", s.Parts, want)
	}
	s.Open = 700 * us
	s.split()
	var sum sim.Time
	for _, d := range s.Parts {
		sum += d
	}
	if sum != s.Complete-s.Open || s.Parts[App] >= 0 {
		t.Fatalf("parts %v of a span opened after its close: want a negative part, sum %d", s.Parts, s.Complete-s.Open)
	}
}

func TestReportString(t *testing.T) {
	s := span(ClassAccess, 0, 0, 10*us, 840*us)
	s.Grant = 500 * us
	out := Analyze([]Span{s}).String()
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
	r.Open(Span{Open: 1})
	r.At(0, r.Open(Span{Open: 2})).Complete = 5
	if got := r.Events(); r.Len() != 2 || got[1].Open != 2 || got[1].Parts[RemoteAck] != 3 || got[0].Complete != Unset {
		t.Fatalf("recorder lost spans or parts: %v", got)
	}
	// Buckets grow by rank; the order is (open, rank) whatever the open
	// order, and a pre-sized recorder gives the same sequence.
	r.Open(Span{Open: 2, Rank: 3})
	r.Open(Span{Open: 1, Rank: 2})
	sized := NewRecorder()
	sized.SetRanks(4)
	var got []int
	for _, s := range r.Events() {
		*sized.At(s.Rank, sized.Open(s)) = s
		got = append(got, s.Rank)
	}
	if want := []int{0, 2, 0, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged rank order %v, want %v", got, want)
	}
	if !reflect.DeepEqual(sized.Events(), r.Events()) {
		t.Fatal("pre-sized recorder orders differently")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetRanks on a non-empty recorder should panic")
		}
	}()
	r.SetRanks(8)
}

func TestPartStrings(t *testing.T) {
	seen := map[string]bool{}
	for p := Part(0); p < NumParts; p++ {
		s := p.String()
		if s == "" || seen[s] {
			t.Fatalf("part %d has an empty or duplicate name %q", p, s)
		}
		seen[s] = true
	}
}
