package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1})
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.BucketCount(0) != 0 || h.Sum() != 0 {
		t.Fatalf("nil metrics must read zero: %d %d %d %g", c.Value(), g.Value(), h.BucketCount(0), h.Sum())
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("nil registry snapshot = %v, want empty", got)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/b")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("a/b"); c2 != c {
		t.Fatal("re-registration must return the same counter")
	}
	g := r.Gauge("a/g")
	g.Set(10)
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	// Bounds given unsorted on purpose: registration sorts them.
	h := r.Histogram("h", []float64{10, 1, 5})
	// Upper bounds are inclusive: v <= bound lands in that bucket.
	cases := []struct {
		v    float64
		want int // bucket index after sorting: [1, 5, 10, +Inf]
	}{
		{0.5, 0}, {1, 0}, {1.0001, 1}, {5, 1}, {7, 2}, {10, 2}, {10.5, 3}, {1e9, 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if got := h.snapshot().Count; got != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", got, len(cases))
	}
	sum := 0.0
	for _, c := range cases {
		sum += c.v
	}
	if got := h.Sum(); got != sum {
		t.Errorf("sum = %g, want %g", got, sum)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Registration and updates race with each other and with
			// Snapshot; -race must stay clean.
			c := r.Counter("shared/counter")
			g := r.Gauge("shared/gauge")
			h := r.Histogram("shared/hist", []float64{0.25, 0.5, 0.75})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i%4) / 4)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := r.Counter("shared/counter").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("shared/gauge").Value(); got != perWorker-1 {
		t.Fatalf("gauge = %d, want %d", got, perWorker-1)
	}
	if got := r.Histogram("shared/hist", nil).snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestSnapshotHierarchy(t *testing.T) {
	r := NewRegistry()
	r.Counter("pdn/cache/hits").Add(3)
	r.Counter("pdn/cache/misses").Add(1)
	r.Gauge("mapper/queue_depth").Set(2)
	r.Histogram("mapper/wait_s", []float64{0.1}).Observe(0.05)

	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	pdn, ok := doc["pdn"].(map[string]interface{})
	if !ok {
		t.Fatalf("missing pdn subtree in %s", buf.String())
	}
	cache, ok := pdn["cache"].(map[string]interface{})
	if !ok {
		t.Fatalf("missing pdn/cache subtree in %s", buf.String())
	}
	if got := cache["hits"].(float64); got != 3 {
		t.Errorf("pdn/cache/hits = %v, want 3", got)
	}
	mapper := doc["mapper"].(map[string]interface{})
	if got := mapper["queue_depth"].(float64); got != 2 {
		t.Errorf("mapper/queue_depth = %v, want 2", got)
	}
	hist, ok := mapper["wait_s"].(map[string]interface{})
	if !ok {
		t.Fatalf("missing mapper/wait_s histogram in %s", buf.String())
	}
	if got := hist["count"].(float64); got != 1 {
		t.Errorf("mapper/wait_s count = %v, want 1", got)
	}

	// Determinism: two snapshots of the same state are byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeated snapshots of identical state differ")
	}
}
