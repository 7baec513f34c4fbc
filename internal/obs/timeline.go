package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// TimelineEvent is one entry in the engine's event timeline. TS and Dur are
// simulated seconds from the engine clock — the recorder never reads the
// wall clock, so timelines are as deterministic as the run itself. A zero
// Dur marks an instantaneous event; App < 0 marks a global (non-app) event.
type TimelineEvent struct {
	Name string  // static event name ("map", "app", "drop", "sample", "ve")
	TS   float64 // simulated start time, seconds
	Dur  float64 // simulated duration, seconds (0 = instant)
	App  int     // application ID, or -1 for chip-global events
	Arg  int64   // event-specific payload (VE count, queue depth, ...)
}

// Timeline is a bounded ring buffer of TimelineEvents. When full, Record
// overwrites the oldest event and counts the loss in Dropped, so a long run
// keeps its most recent window instead of growing without bound. A nil
// Timeline discards events, which lets instrumented code record
// unconditionally.
type Timeline struct {
	ring[TimelineEvent]
}

// NewTimeline returns a timeline holding at most capacity events (minimum 1).
func NewTimeline(capacity int) *Timeline {
	return &Timeline{newRing[TimelineEvent](capacity)}
}

// Record appends ev, overwriting the oldest event when the buffer is full.
func (t *Timeline) Record(ev TimelineEvent) {
	if t != nil {
		t.push(ev)
	}
}

// Dropped returns how many events were overwritten after the buffer filled.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.drops()
}

// Events returns the buffered events oldest-first as a fresh slice.
func (t *Timeline) Events() []TimelineEvent {
	if t == nil {
		return nil
	}
	return t.items()
}

// traceEvent is one entry of the Chrome trace-event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Timestamps and durations are microseconds; we map simulated seconds
// directly to trace microseconds so one trace-second equals one
// simulated millisecond — a comfortable zoom range for Perfetto.
type traceEvent struct {
	Name  string                 `json:"name"`
	Phase string                 `json:"ph"`
	TS    float64                `json:"ts"`
	Dur   float64                `json:"dur,omitempty"`
	PID   int                    `json:"pid"`
	TID   int                    `json:"tid"`
	Scope string                 `json:"s,omitempty"`
	Args  map[string]interface{} `json:"args,omitempty"`
}

// traceFile is the top-level JSON object Perfetto expects.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the buffered events as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Events with a
// duration become complete ("X") slices; instantaneous events become global
// instants ("i"). Each app gets its own track (tid = app ID); global events
// land on tid 0.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	out := traceFile{TraceEvents: make([]traceEvent, 0, len(events)), DisplayTimeUnit: "ms"}
	for _, ev := range events {
		te := traceEvent{
			Name: ev.Name,
			TS:   ev.TS * 1e6, // simulated s -> trace µs
			PID:  0,
			Args: map[string]interface{}{"arg": ev.Arg},
		}
		if ev.App >= 0 {
			te.TID = ev.App
			te.Args["app"] = ev.App
		}
		if ev.Dur > 0 {
			te.Phase = "X"
			te.Dur = ev.Dur * 1e6
		} else {
			te.Phase = "i"
			te.Scope = "g"
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return fmt.Errorf("obs: marshaling trace: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	return nil
}
