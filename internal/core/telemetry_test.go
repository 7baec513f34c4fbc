package core

import (
	"bytes"
	"strings"
	"testing"

	"parm/internal/appmodel"
	"parm/internal/obs"
)

// Telemetry must be strictly observational: a run with the full registry and
// timeline attached serializes byte-identically to one with both disabled.
func TestEngineRunsByteIdenticalWithTelemetry(t *testing.T) {
	run := func(enable bool) []byte {
		cfg := Config{}
		w := genWorkload(t, appmodel.WorkloadMixed, 6, 0.06, 14)
		eng, err := NewEngine(cfg, MustCombo("PARM", "PANR"))
		if err != nil {
			t.Fatal(err)
		}
		if enable {
			eng.EnableTelemetry(obs.NewRegistry())
			eng.AttachTimeline(obs.NewTimeline(1 << 12))
			eng.AttachDecisions(obs.NewDecisionLog(1 << 10))
		}
		m, err := eng.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	off, on := run(false), run(true)
	if !bytes.Equal(off, on) {
		t.Error("telemetry-enabled run diverged from the telemetry-off reference")
	}
}

// A telemetered run populates every layer's counters and the timeline.
func TestTelemetryCountersPopulated(t *testing.T) {
	r := obs.NewRegistry()
	tl := obs.NewTimeline(1 << 12)
	eng, err := NewEngine(Config{}, MustCombo("PARM", "PANR"))
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableTelemetry(r)
	eng.AttachTimeline(tl)
	w := genWorkload(t, appmodel.WorkloadMixed, 6, 0.06, 14)
	m, err := eng.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{
		"pdn/cache/hits", "pdn/cache/misses",
		"chip/psn/samples", "chip/psn/domain_solves",
		"chip/sensor/samples", "noc/windows", "noc/measured_cycles",
		"noc/warmup_cycles", "noc/flits_delivered/PANR",
		"mapper/candidates", "mapper/mapped",
	} {
		if got := r.Counter(name).Value(); got == 0 {
			t.Errorf("counter %s = 0 after a full run", name)
		}
	}
	if got := r.Counter("mapper/mapped").Value(); int(got) != m.Completed+m.Unfinished {
		// Every completed or still-running app was mapped exactly once.
		t.Errorf("mapper/mapped = %d, want %d", got, m.Completed+m.Unfinished)
	}
	if int(r.Counter("engine/ves").Value()) != m.TotalVEs {
		t.Errorf("engine/ves = %d, want %d", r.Counter("engine/ves").Value(), m.TotalVEs)
	}
	// Every domain solve goes through one cache lookup.
	solves := r.Counter("chip/psn/domain_solves").Value()
	hits, misses := r.Counter("pdn/cache/hits").Value(), r.Counter("pdn/cache/misses").Value()
	if hits+misses != solves {
		t.Errorf("pdn/cache hits %d + misses %d = %d, want chip/psn/domain_solves %d", hits, misses, hits+misses, solves)
	}
	if len(tl.Events()) == 0 {
		t.Fatal("timeline recorded no events")
	}
	seen := map[string]bool{}
	for _, ev := range tl.Events() {
		seen[ev.Name] = true
		if ev.TS < 0 || ev.TS > m.TotalTime+1e-9 {
			t.Errorf("event %q timestamp %g outside simulated run [0, %g]", ev.Name, ev.TS, m.TotalTime)
		}
	}
	for _, name := range []string{"map", "unmap", "app", "sample"} {
		if !seen[name] {
			t.Errorf("timeline missing %q events", name)
		}
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Error("trace output missing traceEvents")
	}
}

// A full run advances the liveness gauges, and the registry surfaces the
// timeline's self-accounting.
func TestProgressPopulated(t *testing.T) {
	r := obs.NewRegistry()
	tl := obs.NewTimeline(1 << 12)
	eng, err := NewEngine(Config{}, MustCombo("PARM", "PANR"))
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableTelemetry(r)
	eng.AttachTimeline(tl)
	w := genWorkload(t, appmodel.WorkloadMixed, 6, 0.06, 14)
	m, err := eng.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	// Liveness gauges track the event loop.
	if got := r.Counter("engine/events").Value(); got == 0 {
		t.Error("engine/events = 0 after a run")
	}
	// The gauge can run slightly past TotalTime: trailing sample events
	// process after the last app completes.
	if got := r.FloatGauge("engine/sim_time_s").Value(); got < m.TotalTime-1e-9 {
		t.Errorf("engine/sim_time_s = %g, want at least TotalTime %g", got, m.TotalTime)
	}

	// The snapshot carries the attached timeline self-accounting.
	snap := r.Snapshot()
	obsTree, ok := snap["obs"].(map[string]interface{})
	if !ok {
		t.Fatalf("snapshot missing obs subtree: %v", snap)
	}
	if _, ok := obsTree["timeline_dropped"]; !ok {
		t.Error("snapshot missing obs/timeline_dropped")
	}
}

// Decision provenance covers every mapper outcome with a consistent
// rejection breakdown.
func TestDecisionLogPopulated(t *testing.T) {
	dl := obs.NewDecisionLog(1 << 10)
	eng, err := NewEngine(Config{}, MustCombo("PARM", "PANR"))
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachDecisions(dl)
	// A tight arrival gap forces contention so stalls/drops appear too.
	w := genWorkload(t, appmodel.WorkloadMixed, 8, 0.01, 11)
	m, err := eng.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	ds := dl.Decisions()
	if len(ds) == 0 {
		t.Fatal("no decisions recorded")
	}
	mapped := 0
	for _, d := range ds {
		switch d.Outcome {
		case "mapped":
			mapped++
			if d.Vdd <= 0 || d.DoP <= 0 || len(d.Domains) == 0 {
				t.Errorf("mapped decision missing operating point: %+v", d)
			}
		case "stalled", "dropped":
			if d.Vdd != 0 || d.DoP != 0 || d.Domains != nil {
				t.Errorf("%s decision carries an operating point: %+v", d.Outcome, d)
			}
		default:
			t.Errorf("unknown outcome %q", d.Outcome)
		}
		if d.Candidates == 0 {
			t.Errorf("decision with zero candidates scanned: %+v", d)
		}
		if d.Bench == "" {
			t.Errorf("decision missing bench name: %+v", d)
		}
		if d.WaitS < 0 {
			t.Errorf("negative queue wait: %+v", d)
		}
	}
	if want := m.Completed + m.Unfinished; mapped != want {
		t.Errorf("%d mapped decisions, want %d (completed+unfinished)", mapped, want)
	}
}

// The CSV schema must not depend on whether any samples were recorded
// (downstream consumers parse the header once).
func TestTraceCSVSchemaStable(t *testing.T) {
	eng, err := NewEngine(Config{}, MustCombo("PARM", "PANR"))
	if err != nil {
		t.Fatal(err)
	}
	empty := eng.EnableTrace()
	var emptyCSV bytes.Buffer
	if err := empty.WriteCSV(&emptyCSV); err != nil {
		t.Fatal(err)
	}

	w := genWorkload(t, appmodel.WorkloadCompute, 1, 0.1, 2)
	if _, err := eng.Run(w); err != nil {
		t.Fatal(err)
	}
	if len(empty.Points) == 0 {
		t.Fatal("trace did not record")
	}
	var fullCSV bytes.Buffer
	if err := empty.WriteCSV(&fullCSV); err != nil {
		t.Fatal(err)
	}
	emptyHeader := strings.SplitN(emptyCSV.String(), "\n", 2)[0]
	fullHeader := strings.SplitN(fullCSV.String(), "\n", 2)[0]
	if emptyHeader != fullHeader {
		t.Errorf("empty-trace header %q != populated header %q", emptyHeader, fullHeader)
	}
	if !strings.Contains(emptyHeader, ",dom0") || !strings.Contains(emptyHeader, ",dom14") {
		t.Errorf("empty-trace header missing per-domain columns: %q", emptyHeader)
	}
}
