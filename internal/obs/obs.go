// Package obs is the unified telemetry layer of the simulator: a
// stdlib-only registry of zero-allocation counters, gauges, and fixed-bucket
// histograms, plus a bounded ring-buffer event timeline (timeline.go) that
// exports Chrome trace-event JSON.
//
// The design contract, enforced by the obsreg analyzer and the
// BenchmarkObsCounterAllocs guard, splits telemetry into two phases:
//
//   - Registration (Registry.Counter/Gauge/Histogram) allocates and takes a
//     lock. It happens once, at startup, outside every //parm:hot loop.
//   - Updates (Inc/Add/Set/Observe) are single atomic operations on
//     pre-registered metrics: 0 allocs/op, safe for concurrent use, cheap
//     enough for the measurement hot paths.
//
// Every update method is nil-receiver safe and degrades to a no-op, so
// instrumented code paths need no "telemetry enabled?" branches: a subsystem
// that was never instrumented carries nil metric pointers and pays one
// predictable branch per update. Telemetry is strictly observational — it
// must never alter simulation behavior (runs with telemetry on and off stay
// byte-identical in their metrics output).
//
// Metric names are slash-separated paths ("pdn/cache/hits"); the snapshot
// (WriteSnapshot) nests them into a hierarchical JSON document with
// deterministically sorted keys. Names must be unique and prefix-free (no
// name may also be a path prefix of another).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil Counter discards updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//parm:hot
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
//
//parm:hot
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed level (queue depth, pool occupancy). The
// zero value is ready to use; a nil Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
//
//parm:hot
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add shifts the level by d (use a negative d to decrease).
//
//parm:hot
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current level (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an instantaneous float-valued level (simulated time, a
// utilization ratio). The zero value is ready to use; a nil FloatGauge
// discards updates.
type FloatGauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores the current level.
//
//parm:hot
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current level (0 for a nil FloatGauge).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. An observation lands in the
// first bucket whose upper bound is >= the value (upper bounds are
// inclusive, mirroring Prometheus "le" semantics); values above the last
// bound land in the implicit +Inf bucket. Bounds are fixed at registration,
// so Observe is allocation-free. A nil Histogram discards updates.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// newHistogram copies and sorts the bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
//
//parm:hot
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// BucketCount returns the count of bucket i, where i indexes the sorted
// upper bounds and i == len(bounds) is the +Inf bucket.
func (h *Histogram) BucketCount(i int) uint64 {
	if h == nil {
		return 0
	}
	return h.counts[i].Load()
}

// histBucketJSON is one bucket in the snapshot: the inclusive upper bound
// ("inf" for the overflow bucket) and its observation count.
type histBucketJSON struct {
	Le    interface{} `json:"le"`
	Count uint64      `json:"count"`
}

// histJSON is the snapshot form of a histogram.
type histJSON struct {
	Count   uint64           `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets []histBucketJSON `json:"buckets"`
}

func (h *Histogram) snapshot() histJSON {
	out := histJSON{Count: h.count.Load(), Sum: math.Float64frombits(h.sum.Load())}
	for i := range h.counts {
		b := histBucketJSON{Count: h.counts[i].Load()}
		if i < len(h.bounds) {
			b.Le = h.bounds[i]
		} else {
			b.Le = "inf"
		}
		out.Buckets = append(out.Buckets, b)
	}
	return out
}

// Registry holds the pre-registered metrics of one run. The zero value is
// not usable; call NewRegistry. A nil *Registry is the disabled-telemetry
// mode: every registration returns a nil metric whose updates are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	fgauges  map[string]*FloatGauge
	hists    map[string]*Histogram
	attached map[string]func() interface{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		fgauges:  make(map[string]*FloatGauge),
		hists:    make(map[string]*Histogram),
		attached: make(map[string]func() interface{}),
	}
}

// Counter registers (or returns the already-registered) counter under name.
// Registration locks and may allocate: call it at startup, never inside a
// hot loop (the obsreg analyzer enforces this).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers (or returns the already-registered) gauge under name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge registers (or returns the already-registered) float gauge
// under name.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.fgauges[name]
	if !ok {
		g = &FloatGauge{}
		r.fgauges[name] = g
	}
	return g
}

// Attach registers fn to be evaluated at snapshot time and inserted at the
// slash-separated name, letting externally-owned state (timeline drop
// counters, span rollups) appear in the snapshot without copying it on
// every update. fn must return a JSON-marshalable value and be safe to call
// concurrently with the rest of the program; numeric leaves (including
// nested map[string]interface{} trees of numbers) also reach the Prometheus
// exposition as untyped families. Attaching the same name again replaces
// the previous collector. Names share the metric namespace and must keep it
// prefix-free.
func (r *Registry) Attach(name string, fn func() interface{}) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attached[name] = fn
}

// Histogram registers (or returns the already-registered) histogram under
// name. bounds are the inclusive bucket upper bounds; they are copied,
// sorted, and fixed for the histogram's lifetime. The bounds of the first
// registration win.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns the current metric values as a hierarchical document:
// slash-separated name segments become nested objects, leaves are counter
// and gauge values (numbers) and histogram summaries (count/sum/buckets).
// It is safe to call concurrently with updates; values are read atomically
// per metric (the snapshot is not a cross-metric consistent cut).
func (r *Registry) Snapshot() map[string]interface{} {
	root := make(map[string]interface{})
	if r == nil {
		return root
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Sorted walks keep the result independent of map order even when one
	// name is a prefix path of another.
	for _, name := range sortedKeys(r.counters) {
		insert(root, name, r.counters[name].Value())
	}
	for _, name := range sortedKeys(r.gauges) {
		insert(root, name, r.gauges[name].Value())
	}
	for _, name := range sortedKeys(r.fgauges) {
		insert(root, name, r.fgauges[name].Value())
	}
	for _, name := range sortedKeys(r.hists) {
		insert(root, name, r.hists[name].snapshot())
	}
	// Attached collectors run outside the registry lock path of their own
	// data (each guards its own state); the map itself is guarded here.
	for _, name := range sortedKeys(r.attached) {
		insert(root, name, r.attached[name]())
	}
	return root
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// insert places value at the slash-separated path in the nested map.
func insert(root map[string]interface{}, name string, value interface{}) {
	parts := strings.Split(name, "/")
	m := root
	for _, p := range parts[:len(parts)-1] {
		child, ok := m[p].(map[string]interface{})
		if !ok {
			child = make(map[string]interface{})
			m[p] = child
		}
		m = child
	}
	m[parts[len(parts)-1]] = value
}

// WriteSnapshot writes the hierarchical snapshot as indented JSON with
// deterministically sorted keys (encoding/json sorts map keys).
func (r *Registry) WriteSnapshot(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshaling snapshot: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("obs: writing snapshot: %w", err)
	}
	return nil
}
