package obshttp_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"parm/internal/appmodel"
	"parm/internal/core"
	"parm/internal/obs"
	"parm/internal/obs/obshttp"
	"parm/internal/power"
)

// Serving telemetry and scraping it while the engine runs must not perturb
// the simulation: the Metrics JSON is byte-identical to a bare run with no
// telemetry at all. Every mid-run scrape of /metrics, /trace, /decisions
// and /healthz must also succeed: 200, JSON bodies that parse, and
// expositions with the post-run families in the same order and each
// histogram's _count equal to its +Inf bucket.
func TestServeMidRunScrapeByteIdentity(t *testing.T) {
	w, err := appmodel.Generate(appmodel.WorkloadConfig{
		Kind: appmodel.WorkloadMixed, NumApps: 8, ArrivalGap: 0.06,
		Node: power.MustParams(power.Node7), Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *core.Engine {
		eng, err := core.NewEngine(core.Config{}, core.MustCombo("PARM", "PANR"))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	metricsJSON := func(eng *core.Engine) []byte {
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

	// Reference: no telemetry, no server.
	want := metricsJSON(newEngine())

	// Telemetered run with the HTTP server up on all three sources, scraped
	// continuously from a second goroutine for the whole duration of Run.
	r := obs.NewRegistry()
	tl := obs.NewTimeline(1 << 12)
	dl := obs.NewDecisionLog(1 << 10)
	eng := newEngine()
	eng.EnableTelemetry(r)
	eng.AttachTimeline(tl)
	eng.AttachDecisions(dl)
	srv, err := obshttp.Serve("127.0.0.1:0", obshttp.Config{Registry: r, Timeline: tl, Decisions: dl})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	type scrapeLog struct {
		rounds int
		types  []string // each /metrics body's # TYPE lines, in order
		errs   []string
	}
	stop := make(chan struct{})
	logs := make(chan scrapeLog, 1)
	go func() {
		var sl scrapeLog
		get := func(path string) (string, bool) {
			resp, err := http.Get("http://" + srv.Addr() + path)
			if err != nil {
				sl.errs = append(sl.errs, fmt.Sprintf("GET %s: %v", path, err))
				return "", false
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				sl.errs = append(sl.errs, fmt.Sprintf("GET %s: status %d, read error %v", path, resp.StatusCode, err))
				return "", false
			}
			return string(body), true
		}
		for {
			select {
			case <-stop:
				logs <- sl
				return
			default:
			}
			if body, ok := get("/metrics"); ok {
				sl.types = append(sl.types, typeLines(body))
				if err := histogramsConsistent(body); err != nil {
					sl.errs = append(sl.errs, "/metrics: "+err.Error())
				}
			}
			for _, path := range []string{"/trace", "/decisions", "/healthz"} {
				if body, ok := get(path); ok && !json.Valid([]byte(body)) {
					sl.errs = append(sl.errs, path+": body is not JSON")
				}
			}
			sl.rounds++
			time.Sleep(time.Millisecond)
		}
	}()

	got := metricsJSON(eng)
	close(stop)
	sl := <-logs

	if sl.rounds == 0 {
		t.Error("no mid-run scrape round completed; the test exercised nothing")
	}
	for i, e := range sl.errs {
		if i == 5 {
			t.Errorf("... and %d more scrape failures", len(sl.errs)-i)
			break
		}
		t.Error(e)
	}
	if !bytes.Equal(got, want) {
		t.Error("run scraped over HTTP diverged from the bare reference run")
	}

	// The post-run exposition carries the engine metric families, and every
	// mid-run scrape rendered the same families in the same order.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"parm_mapper_mapped", "parm_engine_events", "parm_obs_timeline_dropped"} {
		if !strings.Contains(buf.String(), fam) {
			t.Errorf("post-run exposition missing %s", fam)
		}
	}
	final := typeLines(buf.String())
	for i, types := range sl.types {
		if types != final {
			t.Errorf("mid-run scrape %d has TYPE lines\n%s\nwant the post-run\n%s", i, types, final)
			break
		}
	}
}

// typeLines returns the exposition's # TYPE lines in order.
func typeLines(exposition string) string {
	var b strings.Builder
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// histogramsConsistent checks that every histogram of the exposition has a
// _count sample equal to its +Inf bucket.
func histogramsConsistent(exposition string) error {
	inf := map[string]string{}
	count := map[string]string{}
	for _, line := range strings.Split(exposition, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if base, ok := strings.CutSuffix(name, `_bucket{le="+Inf"}`); ok {
			inf[base] = value
		} else if base, ok := strings.CutSuffix(name, "_count"); ok {
			count[base] = value
		}
	}
	if len(inf) == 0 {
		return fmt.Errorf("no histogram rendered")
	}
	for base, v := range inf {
		if count[base] != v {
			return fmt.Errorf("%s_count %q != +Inf bucket %q", base, count[base], v)
		}
	}
	return nil
}
