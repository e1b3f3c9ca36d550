package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSON persistence for traces, so recordings can be archived and analyzed
// offline (or diffed across runs — the simulator is deterministic).

// jsonEvent is the serialized form of Event with readable enum names.
type jsonEvent struct {
	T     int64      `json:"t_ns"`
	Rank  int        `json:"rank"`
	Win   int64      `json:"win"`
	Epoch int64      `json:"epoch"`
	Class EpochClass `json:"class,omitempty"`
	Kind  string     `json:"kind"`
	Peer  int        `json:"peer"`
	Size  int64      `json:"size,omitempty"`
}

// kindNames maps Kind values to stable wire names.
var kindNames = map[Kind]string{
	EpochOpen:     "open",
	EpochActivate: "activate",
	EpochCloseApp: "close",
	EpochComplete: "complete",
	GrantRecv:     "grant",
	DoneRecv:      "done",
	DataIn:        "data-in",
	LockGranted:   "lock-granted",
}

// kindByName is the inverse of kindNames.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// WriteJSON streams the recording as a JSON array of events.
func (r *Recorder) WriteJSON(w io.Writer) error {
	events := r.Events()
	out := make([]jsonEvent, len(events))
	for i, e := range events {
		out[i] = jsonEvent{
			T: e.T, Rank: e.Rank, Win: e.Win, Epoch: e.Epoch,
			Class: e.Class, Kind: kindNames[e.Kind], Peer: e.Peer, Size: e.Size,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// readJSON parses a recording previously written with WriteJSON.
func readJSON(rd io.Reader) ([]Event, error) {
	var in []jsonEvent
	if err := json.NewDecoder(rd).Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decoding JSON recording: %w", err)
	}
	out := make([]Event, len(in))
	for i, e := range in {
		kind, ok := kindByName[e.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: unknown event kind %q at index %d", e.Kind, i)
		}
		out[i] = Event{
			T: e.T, Rank: e.Rank, Win: e.Win, Epoch: e.Epoch,
			Class: e.Class, Kind: kind, Peer: e.Peer, Size: e.Size,
		}
	}
	return out, nil
}
