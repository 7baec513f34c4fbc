package obshttp_test

import (
	"bytes"
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
// telemetry at all.
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

	// Telemetered run with the HTTP server up, scraped continuously from a
	// second goroutine for the whole duration of Run.
	r := obs.NewRegistry()
	eng := newEngine()
	eng.EnableTelemetry(r)
	eng.AttachTimeline(obs.NewTimeline(1 << 12))
	eng.AttachDecisions(obs.NewDecisionLog(1 << 10))
	srv, err := obshttp.Serve("127.0.0.1:0", obshttp.Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	scrapes := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scrapes <- n
				return
			default:
			}
			resp, err := http.Get("http://" + srv.Addr() + "/metrics")
			if err != nil {
				continue
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				if verr := obs.ValidateExposition(bytes.NewReader(body)); verr == nil {
					n++
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	got := metricsJSON(eng)
	close(stop)
	n := <-scrapes

	if n == 0 {
		t.Error("no successful mid-run scrape landed; the test exercised nothing")
	}
	if !bytes.Equal(got, want) {
		t.Error("run scraped over HTTP diverged from the bare reference run")
	}

	// The post-run exposition carries the engine metric families.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"parm_mapper_mapped", "parm_engine_events", "parm_obs_timeline_dropped"} {
		if !strings.Contains(buf.String(), fam) {
			t.Errorf("post-run exposition missing %s", fam)
		}
	}
}
