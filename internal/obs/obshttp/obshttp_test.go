package obshttp_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parm/internal/obs"
	"parm/internal/obs/obshttp"
)

// Every endpoint answers over real HTTP with the right content type and
// the recorded telemetry.
func TestHandlerRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("engine/events").Add(42)
	r.FloatGauge("engine/sim_time_s").Set(1.5)
	r.Histogram("mapper/wait_s", []float64{0.1, 1}).Observe(0.2)
	tl := obs.NewTimeline(16)
	tl.Record(obs.TimelineEvent{Name: "sample", TS: 0.5, App: -1, Arg: 3})
	dl := obs.NewDecisionLog(8)
	dl.Record(obs.Decision{TS: 0.2, App: 1, Outcome: "mapped", Candidates: 3})

	srv := httptest.NewServer(obshttp.NewHandler(obshttp.Config{
		Registry: r, Timeline: tl, Decisions: dl,
	}))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if ctype != obs.ExpositionContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ctype, obs.ExpositionContentType)
	}
	for _, want := range []string{"parm_engine_events 42", "parm_mapper_wait_s_bucket"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	healthz, _ := get("/healthz")
	var h obshttp.Health
	if err := json.Unmarshal([]byte(healthz), &h); err != nil {
		t.Fatalf("/healthz does not parse: %v\n%s", err, healthz)
	}
	if h.Status != "ok" || h.SimTimeS != 1.5 || h.Events != 42 {
		t.Errorf("/healthz = %+v, want ok/1.5/42", h)
	}

	snapshot, ctype := get("/snapshot")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/snapshot Content-Type = %q", ctype)
	}
	var snap map[string]interface{}
	if err := json.Unmarshal([]byte(snapshot), &snap); err != nil {
		t.Fatalf("/snapshot does not parse: %v", err)
	}
	if _, ok := snap["engine"]; !ok {
		t.Errorf("/snapshot missing engine subtree: %s", snapshot)
	}

	decisions, _ := get("/decisions")
	var dec struct {
		Decisions []obs.Decision `json:"decisions"`
	}
	if err := json.Unmarshal([]byte(decisions), &dec); err != nil {
		t.Fatalf("/decisions does not parse: %v", err)
	}
	if len(dec.Decisions) != 1 || dec.Decisions[0].Outcome != "mapped" {
		t.Errorf("/decisions = %s, want the one recorded decision", decisions)
	}

	trace, _ := get("/trace")
	if !strings.Contains(trace, `"traceEvents"`) || !strings.Contains(trace, `"sample"`) {
		t.Errorf("/trace missing the recorded event: %s", trace)
	}

	pprofIdx, _ := get("/debug/pprof/")
	if !strings.Contains(pprofIdx, "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
}

// A config with every source nil still serves: empty exposition, empty
// decision list, empty trace — no panics, no 500s.
func TestHandlerNilSources(t *testing.T) {
	srv := httptest.NewServer(obshttp.NewHandler(obshttp.Config{}))
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":   "",
		"/decisions": `"decisions": []`,
		"/trace":     `"traceEvents"`,
		"/healthz":   `"status": "ok"`,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with nil sources: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s = %q, want it to contain %q", path, body, want)
		}
	}
}

// A /healthz scrape only reads: on a registry without the engine's progress
// metrics it reports zeros and leaves the /metrics exposition unchanged.
func TestHealthzRegistersNothing(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("pdn/cache/hits").Add(3)
	srv := httptest.NewServer(obshttp.NewHandler(obshttp.Config{Registry: r}))
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return string(body)
	}
	before := get("/metrics")
	var h obshttp.Health
	if err := json.Unmarshal([]byte(get("/healthz")), &h); err != nil {
		t.Fatal(err)
	}
	if h.SimTimeS != 0 || h.Events != 0 {
		t.Errorf("/healthz = %+v, want zero progress", h)
	}
	if after := get("/metrics"); after != before {
		t.Errorf("/healthz changed /metrics:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// Serve binds synchronously, reports its real address, and stops on Close.
func TestServeLifecycle(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("engine/events").Add(1)
	s, err := obshttp.Serve("127.0.0.1:0", obshttp.Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scraping live server: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //parm:errok test drain
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("live /metrics status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Error("server still answering after Close")
	}

	if _, err := obshttp.Serve("256.0.0.1:99999", obshttp.Config{}); err == nil {
		t.Error("Serve accepted an unusable address")
	}
}
