package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders the registry in the Prometheus text exposition format
// (version 0.0.4), the wire format scraped from /metrics. Slash-separated
// metric paths become parm_-prefixed underscore names ("pdn/cache/hits" ->
// "parm_pdn_cache_hits"); counters, gauges, and float gauges render as one
// sample per family, histograms render with cumulative _bucket series plus
// _sum and _count, and attached collectors render as untyped families.
// Output is deterministic: families are sorted by name, histogram buckets by
// bound.

// ExpositionContentType is the Content-Type of the rendered text format.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName maps a slash-separated metric path to a Prometheus metric name:
// parm_ prefix, path separators and any character outside [a-zA-Z0-9_:]
// replaced with underscores.
func promName(path string) string {
	var b strings.Builder
	b.Grow(len("parm_") + len(path))
	b.WriteString("parm_")
	for _, r := range path {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promFamily is one rendered metric family: the TYPE header plus its
// sample lines, ready to write in name order.
type promFamily struct {
	name  string // Prometheus name, the sort key
	path  string // original slash path, used as the HELP text
	typ   string // counter, gauge, histogram, untyped
	lines []string
}

// WritePrometheus renders every registered metric (and the values of
// attached collectors) in the Prometheus text exposition format. It is
// safe to call concurrently with updates; like Snapshot, values are read
// atomically per metric, not as a cross-metric consistent cut.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var fams []promFamily
	if r != nil {
		r.mu.Lock()
		for _, path := range sortedKeys(r.counters) {
			c := r.counters[path]
			name := promName(path)
			fams = append(fams, promFamily{name: name, path: path, typ: "counter",
				lines: []string{name + " " + strconv.FormatUint(c.Value(), 10)}})
		}
		for _, path := range sortedKeys(r.gauges) {
			g := r.gauges[path]
			name := promName(path)
			fams = append(fams, promFamily{name: name, path: path, typ: "gauge",
				lines: []string{name + " " + strconv.FormatInt(g.Value(), 10)}})
		}
		for _, path := range sortedKeys(r.fgauges) {
			g := r.fgauges[path]
			name := promName(path)
			fams = append(fams, promFamily{name: name, path: path, typ: "gauge",
				lines: []string{name + " " + formatFloat(g.Value())}})
		}
		for _, path := range sortedKeys(r.hists) {
			fams = append(fams, histFamily(path, r.hists[path]))
		}
		for _, path := range sortedKeys(r.attached) {
			name := promName(path)
			fams = append(fams, promFamily{name: name, path: path, typ: "untyped",
				lines: []string{name + " " + formatFloat(float64(r.attached[path]()))}})
		}
		r.mu.Unlock()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.path)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, line := range f.lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("obs: writing exposition: %w", err)
	}
	return nil
}

// histFamily renders one histogram: cumulative buckets (Prometheus le
// semantics, always ending in +Inf), then _sum and _count. _count is the
// +Inf bucket's cumulative count, so the two agree even while Observe runs
// concurrently. A histogram with zero observations renders the identical
// bucket schema with zero counts, so the scrape schema is stable from the
// first scrape.
func histFamily(path string, h *Histogram) promFamily {
	name := promName(path)
	f := promFamily{name: name, path: path, typ: "histogram"}
	cum := uint64(0)
	for i := range h.counts {
		cum += h.BucketCount(i)
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		f.lines = append(f.lines, fmt.Sprintf("%s_bucket{le=%q} %d", name, le, cum))
	}
	f.lines = append(f.lines,
		fmt.Sprintf("%s_sum %s", name, formatFloat(h.Sum())),
		fmt.Sprintf("%s_count %d", name, cum))
	return f
}
