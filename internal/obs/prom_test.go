package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The exposition renders every metric kind with parm_-prefixed names,
// cumulative histogram buckets, and passes its own validator.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("pdn/cache/hits").Add(3)
	r.Gauge("mapper/queue_depth").Set(2)
	r.FloatGauge("engine/sim_time_s").Set(1.25)
	h := r.Histogram("mapper/wait_s", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Attach("obs/timeline_dropped", func() interface{} { return uint64(7) })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE parm_pdn_cache_hits counter",
		"parm_pdn_cache_hits 3",
		"# TYPE parm_mapper_queue_depth gauge",
		"parm_mapper_queue_depth 2",
		"# TYPE parm_engine_sim_time_s gauge",
		"parm_engine_sim_time_s 1.25",
		"# TYPE parm_mapper_wait_s histogram",
		`parm_mapper_wait_s_bucket{le="0.1"} 2`,
		`parm_mapper_wait_s_bucket{le="1"} 3`,
		`parm_mapper_wait_s_bucket{le="+Inf"} 4`,
		"parm_mapper_wait_s_count 4",
		"# TYPE parm_obs_timeline_dropped untyped",
		"parm_obs_timeline_dropped 7",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition is missing %q:\n%s", want, text)
		}
	}
	if err := ValidateExposition(strings.NewReader(text)); err != nil {
		t.Errorf("exposition fails its own validator: %v\n%s", err, text)
	}

	// Deterministic: a second render of the same state is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeated expositions of identical state differ")
	}
}

// A histogram with zero observations must render the identical bucket
// schema as a populated one — in the exposition and in the JSON snapshot —
// so the scrape schema is stable from the first scrape.
func TestZeroObservationHistogramSchemaStable(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}
	empty := NewRegistry()
	empty.Histogram("mapper/wait_s", bounds)
	full := NewRegistry()
	full.Histogram("mapper/wait_s", bounds).Observe(0.5)

	schema := func(r *Registry) []string {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				names = append(names, line)
				continue
			}
			// Keep the series name and label set, drop the value.
			names = append(names, line[:strings.LastIndexByte(line, ' ')])
		}
		return names
	}
	got, want := schema(empty), schema(full)
	if len(got) != len(want) {
		t.Fatalf("zero-observation schema has %d lines, populated has %d:\nempty: %v\nfull:  %v",
			len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("schema line %d: zero-observation %q != populated %q", i, got[i], want[i])
		}
	}

	// The JSON snapshot emits the same bucket array for both.
	buckets := func(r *Registry) []interface{} {
		doc := r.Snapshot()
		hist := doc["mapper"].(map[string]interface{})["wait_s"].(histJSON)
		out := make([]interface{}, len(hist.Buckets))
		for i, b := range hist.Buckets {
			out[i] = b.Le
		}
		return out
	}
	eb, fb := buckets(empty), buckets(full)
	if len(eb) != len(fb) || len(eb) != len(bounds)+1 {
		t.Fatalf("snapshot buckets: empty %d, full %d, want %d", len(eb), len(fb), len(bounds)+1)
	}
	for i := range eb {
		if eb[i] != fb[i] {
			t.Errorf("snapshot bucket %d: empty le=%v, full le=%v", i, eb[i], fb[i])
		}
	}

	// And the snapshot JSON of the empty histogram round-trips with the
	// full bucket chain present.
	var buf bytes.Buffer
	if err := empty.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	hist := doc["mapper"].(map[string]interface{})["wait_s"].(map[string]interface{})
	if bs := hist["buckets"].([]interface{}); len(bs) != len(bounds)+1 {
		t.Errorf("empty-histogram snapshot has %d buckets, want %d", len(bs), len(bounds)+1)
	}
}

// Nil registries render an empty exposition without panicking.
func TestWritePrometheusNil(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry rendered %q", buf.String())
	}
}

// The validator rejects the malformed expositions it exists to catch.
func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"bad metric name", "9bad_name 1\n"},
		{"missing value", "parm_x\n"},
		{"bad value", "parm_x notafloat\n"},
		{"unknown type", "# TYPE parm_x frobnicator\n"},
		{"duplicate type", "# TYPE parm_x counter\n# TYPE parm_x counter\n"},
		{"type after samples", "parm_x 1\n# TYPE parm_x counter\n"},
		{"histogram without inf", "# TYPE parm_h histogram\nparm_h_bucket{le=\"1\"} 1\nparm_h_sum 1\nparm_h_count 1\n"},
		{"histogram count mismatch", "# TYPE parm_h histogram\nparm_h_bucket{le=\"+Inf\"} 2\nparm_h_sum 1\nparm_h_count 3\n"},
		{"decreasing buckets", "# TYPE parm_h histogram\nparm_h_bucket{le=\"1\"} 5\nparm_h_bucket{le=\"2\"} 3\nparm_h_bucket{le=\"+Inf\"} 5\nparm_h_sum 1\nparm_h_count 5\n"},
		{"unterminated labels", "parm_x{le=\"1\" 1\n"},
	}
	for _, tc := range cases {
		if err := ValidateExposition(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: validator accepted %q", tc.name, tc.text)
		}
	}
	if err := ValidateExposition(strings.NewReader("# just a comment\nparm_ok{le=\"0.5\",app=\"3\"} 42 1700000000\n")); err != nil {
		t.Errorf("validator rejected a well-formed sample: %v", err)
	}
}
