package obs

import "testing"

// BenchmarkObsCounterAllocs pins the zero-allocation contract of the
// hot-path update methods: pre-registered counter/gauge/histogram updates
// must not allocate, whether the metric is live or nil (telemetry off).
func BenchmarkObsCounterAllocs(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench/counter")
	g := r.Gauge("bench/gauge")
	h := r.Histogram("bench/hist", []float64{0.25, 0.5, 0.75, 1})
	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		c.Add(2)
		g.Set(int64(i))
		h.Observe(float64(i&3) / 4)
		nilC.Inc()
		nilG.Set(1)
		nilH.Observe(0.5)
	}
}

func TestCounterUpdatesZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc/counter")
	g := r.Gauge("alloc/gauge")
	fg := r.FloatGauge("alloc/fgauge")
	h := r.Histogram("alloc/hist", []float64{1, 2, 3})
	tl := NewTimeline(4)
	ev := TimelineEvent{Name: "sample", TS: 1, App: -1, Arg: 2}
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		fg.Set(0.5)
		h.Observe(1.5)
		tl.Record(ev)
	}); n != 0 {
		t.Fatalf("metric updates allocate %v allocs/op, want 0", n)
	}
	if tl.Dropped() == 0 {
		t.Fatal("timeline never wrapped; Record's overwrite path went unmeasured")
	}
	var nilC *Counter
	var nilG *Gauge
	var nilFG *FloatGauge
	var nilH *Histogram
	var nilTL *Timeline
	if n := testing.AllocsPerRun(100, func() {
		nilC.Inc()
		nilC.Add(3)
		nilG.Set(7)
		nilFG.Set(0.5)
		nilH.Observe(0.1)
		nilTL.Record(ev)
	}); n != 0 {
		t.Fatalf("nil metric updates allocate %v allocs/op, want 0", n)
	}
}
