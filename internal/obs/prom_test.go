package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRegistry holds one metric of every kind the writers render: a
// counter, a gauge, a float gauge, a populated and an empty histogram, and
// an attached collector, with paths whose '-' and '.' promName rewrites.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("pdn/cache/hits").Add(3)
	r.Counter("noc/flits_injected/x-y.z").Add(1234567)
	r.Gauge("mapper/queue_depth").Set(-2)
	r.FloatGauge("engine/sim_time_s").Set(1.25)
	h := r.Histogram("mapper/wait_s", []float64{1, 0.1})
	for _, v := range []float64{0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	r.Histogram("pdn/solve-time.s", []float64{0.001, 0.01})
	r.Attach("obs/timeline_dropped", func() uint64 { return 7 })
	return r
}

// checkGolden compares got with the named file under testdata, rewriting the
// file instead under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// The exposition and the JSON snapshot of a fixed registry are pinned byte
// for byte: family order, names, TYPE and HELP lines, cumulative buckets
// ending in +Inf, _sum and _count, and value formatting.
func TestWritePrometheus(t *testing.T) {
	r := goldenRegistry()
	var prom, snap bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.golden.txt", prom.Bytes())
	checkGolden(t, "snapshot.golden.json", snap.Bytes())
}

// A scrape that runs while Observe does must still render each histogram
// consistently: _count equals the +Inf bucket in the exposition, and the
// snapshot's count equals the sum of its bucket counts.
func TestHistogramScrapeConsistent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mapper/wait_s", []float64{0.01, 0.1, 1})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(float64(i%7) / 4)
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	for i := 0; i < 500; i++ {
		var prom bytes.Buffer
		if err := r.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		for _, line := range strings.Split(prom.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `parm_mapper_wait_s_bucket{le="+Inf"} `); ok {
				inf = v
			}
			if v, ok := strings.CutPrefix(line, "parm_mapper_wait_s_count "); ok {
				count = v
			}
		}
		if inf == "" || count != inf {
			t.Fatalf("scrape %d: _count %q != +Inf bucket %q", i, count, inf)
		}

		var snap bytes.Buffer
		if err := r.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Mapper struct {
				WaitS histJSON `json:"wait_s"`
			} `json:"mapper"`
		}
		if err := json.Unmarshal(snap.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		sum := uint64(0)
		for _, b := range doc.Mapper.WaitS.Buckets {
			sum += b.Count
		}
		if doc.Mapper.WaitS.Count != sum {
			t.Fatalf("snapshot %d: count %d != bucket sum %d", i, doc.Mapper.WaitS.Count, sum)
		}
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
