package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONRoundtrip(t *testing.T) {
	rec := NewRecorder()
	rec.Record(Event{T: 100, Rank: 1, Win: 2, Epoch: 3, Class: ClassAccess, Kind: EpochOpen, Peer: -1})
	rec.Record(Event{T: 200, Rank: 1, Win: 2, Epoch: -1, Kind: DataIn, Peer: 0, Size: 4096})
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("roundtrip lost events: %d", len(events))
	}
	for i := range events {
		if events[i] != rec.Events()[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, events[i], rec.Events()[i])
		}
	}
}

func TestJSONAnalyzeAfterReload(t *testing.T) {
	rec := NewRecorder()
	for _, e := range []Event{
		{T: 0, Kind: EpochOpen, Class: ClassAccess, Epoch: 0, Peer: -1},
		{T: 0, Kind: EpochActivate, Class: ClassAccess, Epoch: 0, Peer: -1},
		{T: 10_000, Kind: EpochCloseApp, Class: ClassAccess, Epoch: 0, Peer: -1},
		{T: 500_000, Kind: GrantRecv, Epoch: -1, Peer: 1},
		{T: 840_000, Kind: EpochComplete, Class: ClassAccess, Epoch: 0, Peer: -1},
	} {
		rec.Record(e)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(events)
	if lp := rep.Pattern("Late Post"); lp.Instances != 1 {
		t.Fatalf("analysis after reload lost Late Post:\n%s", rep)
	}
}

func TestJSONBadKindRejected(t *testing.T) {
	_, err := readJSON(strings.NewReader(`[{"kind":"nonsense"}]`))
	if err == nil {
		t.Fatal("unknown kind should be rejected")
	}
}

func TestJSONBadInputRejected(t *testing.T) {
	_, err := readJSON(strings.NewReader(`{not json`))
	if err == nil {
		t.Fatal("malformed JSON should be rejected")
	}
}
