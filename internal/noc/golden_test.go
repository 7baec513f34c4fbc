package noc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"parm/internal/geom"
)

var updateMeasureGolden = flag.Bool("update", false, "rewrite testdata/measure_golden.json")

// This file is an anchor for the cycle loop that does not depend on the loop
// agreeing with itself. TestActiveDenseEquivalence compares the two steppings,
// but both call the same per-router route, arbitration and traversal helpers,
// so a bug in those helpers moves both sides alike. The digests here were
// recorded once and are only rewritten with -update; any change to the
// simulated flit trajectories shows up as a digest mismatch.

const measureGoldenPath = "testdata/measure_golden.json"

// goldenCase is one fixture of the anchor: a flow set under one routing
// scheme and environment.
type goldenCase struct {
	cfg   Config
	alg   Algorithm
	flows []Flow
	env   *Env
}

// measureGoldenCases covers every equivalence fixture under all three
// routing schemes, and PANR under noisy sensor readings — uniform, so the
// congestion branch sees PSN tie-breaks, and patterned, so the
// quiet-alternative detours of Algorithm 3 are taken.
func measureGoldenCases() map[string]goldenCase {
	cases := make(map[string]goldenCase)
	for fxName, fx := range equivFixtures() {
		for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
			cases[fxName+"/"+alg.Name()] = goldenCase{
				cfg: fx.cfg, alg: alg, flows: fx.flows, env: &Env{PSN: make([]float64, 60)},
			}
		}
	}
	cases["noisy/saturated/PANR"] = goldenCase{alg: PANR{}, flows: benchFlows(), env: noisyEnv(0.08)}
	patterned := &Env{PSN: make([]float64, 60)}
	for i := range patterned.PSN {
		if i%3 == 0 {
			patterned.PSN[i] = 0.08
		} else {
			patterned.PSN[i] = 0.01
		}
	}
	cases["noisy/patterned/PANR"] = goldenCase{alg: PANR{}, flows: benchFlows(), env: patterned}
	return cases
}

// measureDigest runs one case under the given stepping for the equivalence
// suite's warmup+measure schedule and returns the SHA-256 of the Measure
// result followed by the bits of every router's IncomingRate.
func measureDigest(t *testing.T, gc goldenCase, s Stepping) string {
	t.Helper()
	cfg := gc.cfg
	cfg.Stepping = s
	n, err := NewNetwork(cfg, gc.alg, gc.flows, gc.env)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(1500)
	res := n.Measure(6000)
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(raw)
	var word [8]byte
	for tile := range n.routers {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(n.IncomingRate(geom.TileID(tile))))
		h.Write(word[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMeasureGolden checks every case, under both steppings, against the
// recorded digests. Run with -update to rewrite the file; do that only when
// a change to the simulated results is intended.
func TestMeasureGolden(t *testing.T) {
	cases := measureGoldenCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	got := make(map[string]string, len(cases))
	for _, name := range names {
		active := measureDigest(t, cases[name], SteppingActive)
		dense := measureDigest(t, cases[name], SteppingDense)
		if active != dense {
			t.Errorf("%s: active digest %s differs from dense %s", name, active, dense)
		}
		got[name] = active
	}

	if *updateMeasureGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(measureGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(measureGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(measureGoldenPath)
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
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, test produced %d (run with -update to regenerate)", len(want), len(got))
	}
}
