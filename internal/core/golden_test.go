package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"parm/internal/appmodel"
	"parm/internal/obs"
)

var updateEngineGolden = flag.Bool("update", false, "rewrite testdata/engine_golden.json")

// This file anchors whole-engine output to recorded digests, independently of
// the engine agreeing with itself across reruns. Each case
// stores the SHA-256 of its Metrics JSON; any change to what the NoC loop,
// the PDN solve or the mapper simulates shows up as a mismatch. The digests
// are rewritten only with -update, when a change to simulated results is
// intended.

const engineGoldenPath = "testdata/engine_golden.json"

// engineGoldenCase is one engine run: a framework and config over a workload.
type engineGoldenCase struct {
	fw  Framework
	cfg Config
	w   *appmodel.Workload
}

// engineGoldenCases covers the six evaluation frameworks on one 8-app mixed
// sequence in cycle mode (keyed by the framework name), and on one 8-app comm
// sequence in auto mode (keyed "<name>/auto"). The comm sequence saturates
// the network often enough that the auto cases also take cycle fallbacks.
func engineGoldenCases(t *testing.T) map[string]engineGoldenCase {
	t.Helper()
	w := genWorkload(t, appmodel.WorkloadMixed, 8, 0.05, 42)
	comm := genWorkload(t, appmodel.WorkloadComm, 8, 0.05, 42)
	cases := make(map[string]engineGoldenCase)
	for _, fw := range EvaluationFrameworks() {
		cases[fw.Name] = engineGoldenCase{fw: fw, cfg: Config{SoftDeadlines: true}, w: w}
		cases[fw.Name+"/auto"] = engineGoldenCase{fw: fw, cfg: Config{SoftDeadlines: true, NoCMode: NoCModeAuto}, w: comm}
	}
	return cases
}

// TestEngineGolden checks every case against the recorded digests. The auto
// cases share one registry, which must show that they took every branch of
// the auto measurement path: an analytic window and a cycle fallback.
func TestEngineGolden(t *testing.T) {
	cases := engineGoldenCases(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	autoReg := obs.NewRegistry()
	got := make(map[string]string, len(cases))
	for _, name := range names {
		gc := cases[name]
		eng, err := NewEngine(gc.cfg, gc.fw)
		if err != nil {
			t.Fatal(err)
		}
		if gc.cfg.NoCMode == NoCModeAuto {
			eng.EnableTelemetry(autoReg)
		}
		m, err := eng.Run(gc.w)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[name] = hex.EncodeToString(sum[:])
	}

	if *updateEngineGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(engineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: digest %s, golden %s", name, got[name], want[name])
		}
	}
	for _, path := range []string{"noc/analytic_windows", "noc/analytic_fallbacks"} {
		if autoReg.Counter(path).Value() == 0 {
			t.Errorf("auto cases never counted %s", path)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, test produced %d (run with -update to regenerate)", len(want), len(got))
	}
}
