package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestTimelineNil(t *testing.T) {
	var tl *Timeline
	tl.Record(TimelineEvent{Name: "x"})
	if tl.Dropped() != 0 || tl.Events() != nil {
		t.Fatal("nil timeline must discard events")
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil timeline trace: %v", err)
	}
}

func TestTimelineWraparound(t *testing.T) {
	tl := NewTimeline(4)
	for i := 0; i < 10; i++ {
		tl.Record(TimelineEvent{Name: "e", TS: float64(i), App: i})
	}
	if got := len(tl.Events()); got != 4 {
		t.Fatalf("%d events buffered, want 4", got)
	}
	if got := tl.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := tl.Events()
	for i, ev := range evs {
		if want := float64(6 + i); ev.TS != want {
			t.Errorf("event %d ts = %g, want %g (oldest-first most-recent window)", i, ev.TS, want)
		}
	}
	// Recording after wraparound keeps overwriting the oldest slot.
	tl.Record(TimelineEvent{Name: "e", TS: 10})
	if evs := tl.Events(); evs[0].TS != 7 || evs[3].TS != 10 {
		t.Errorf("post-wrap window = [%g..%g], want [7..10]", evs[0].TS, evs[3].TS)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tl := NewTimeline(8)
	tl.Record(TimelineEvent{Name: "app", TS: 0.01, Dur: 0.25, App: 3})
	tl.Record(TimelineEvent{Name: "sample", TS: 0.02, App: -1, Arg: 5})
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
			Scope string  `json:"s"`
			Args  map[string]interface{}
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(doc.TraceEvents))
	}
	span := doc.TraceEvents[0]
	if span.Phase != "X" || span.TS != 0.01*1e6 || span.Dur != 0.25*1e6 || span.TID != 3 {
		t.Errorf("span event = %+v, want complete X slice at 1e4µs for 2.5e5µs on tid 3", span)
	}
	if got := span.Args["app"].(float64); got != 3 {
		t.Errorf("span app arg = %v, want 3", got)
	}
	inst := doc.TraceEvents[1]
	if inst.Phase != "i" || inst.Scope != "g" || inst.Dur != 0 {
		t.Errorf("instant event = %+v, want global instant", inst)
	}
	if got := inst.Args["arg"].(float64); got != 5 {
		t.Errorf("instant arg = %v, want 5", got)
	}
}

// The exported Chrome trace is pinned byte-for-byte over the engine's event
// kinds: an app lifetime slice, per-app instants and chip-global instants.
func TestWriteChromeTraceGolden(t *testing.T) {
	tl := NewTimeline(16)
	tl.Record(TimelineEvent{Name: "map", TS: 0, App: 1, Arg: 4})
	tl.Record(TimelineEvent{Name: "sample", TS: 0.01, App: -1, Arg: 2})
	tl.Record(TimelineEvent{Name: "drop", TS: 0.015, App: 2})
	tl.Record(TimelineEvent{Name: "ve", TS: 0.02, App: -1, Arg: 1})
	tl.Record(TimelineEvent{Name: "app", TS: 0, Dur: 0.03, App: 1, Arg: 4})
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from golden (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
			buf.String(), string(want))
	}
}
