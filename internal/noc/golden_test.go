package noc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"parm/internal/geom"
)

var updateMeasureGolden = flag.Bool("update", false, "rewrite testdata/measure_golden.json")

// This file is an anchor for the cycle loop that does not depend on the loop
// agreeing with anything running today. TestActiveDenseEquivalence checks
// the production loop against the reference simulator; the digests here
// were recorded once and are only rewritten with -update, so a change to
// the simulated flit trajectories that moved both alike still shows up as a
// digest mismatch. Both the production loop and the reference are checked
// against them.

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
// routing schemes, PANR under noisy sensor readings — uniform, so the
// congestion branch sees PSN tie-breaks, and patterned, so the
// quiet-alternative detours of Algorithm 3 are taken — and the deviating
// random flow sets under all three schemes.
func measureGoldenCases() map[string]goldenCase {
	cases := make(map[string]goldenCase)
	for fxName, flows := range equivFixtures() {
		for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
			cases[fxName+"/"+alg.Name()] = goldenCase{
				alg: alg, flows: flows, env: &Env{PSN: make([]float64, 60)},
			}
		}
	}
	cases["noisy/saturated/PANR"] = goldenCase{alg: PANR{}, flows: benchFlows(), env: noisyEnv(0.08)}
	cases["noisy/patterned/PANR"] = goldenCase{alg: PANR{}, flows: benchFlows(), env: patternedEnv()}
	for _, seed := range deviatingSeeds {
		flows := deviatingFlows(seed)
		for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
			cases[fmt.Sprintf("deviating/seed%d/%s", seed, alg.Name())] = goldenCase{
				alg: alg, flows: flows, env: &Env{PSN: make([]float64, 60)},
			}
		}
	}
	return cases
}

// deviatingSeeds select random 10x6 flow sets (deviatingFlows) on which
// both adaptive schemes leave the XY trajectory with zero sensor noise:
// PANR through its congested branch, ICON through its least-rate choice.
// On the quiet fixtures above PANR's digest equals XY's, so without these
// cases the golden file would not pin PANR's adaptive decisions at all.
var deviatingSeeds = []int64{3, 5, 8}

// deviatingFlows returns seed's random flow set on the default 10x6 mesh.
func deviatingFlows(seed int64) []Flow {
	return randomFlows(rand.New(rand.NewSource(seed)), 60, 20, 0.05, 0.45)
}

// goldenDigest is the SHA-256 of a Measure result followed by the bits of
// every router's incoming-rate estimate.
func goldenDigest(t *testing.T, res *Result, rates []float64) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(raw)
	var word [8]byte
	for _, r := range rates {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(r))
		h.Write(word[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measureDigest runs one case on the production network for the
// equivalence suite's warmup+measure schedule and returns its digest.
func measureDigest(t *testing.T, gc goldenCase) string {
	t.Helper()
	n, err := NewNetwork(gc.cfg, gc.alg, gc.flows, gc.env)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(equivWarmup)
	res := n.Measure(equivWindow)
	rates := make([]float64, len(n.routers))
	for tile := range rates {
		rates[tile] = n.IncomingRate(geom.TileID(tile))
	}
	return goldenDigest(t, res, rates)
}

// referenceDigest is measureDigest on the reference simulator.
func referenceDigest(t *testing.T, gc goldenCase) string {
	t.Helper()
	ref := newRefSim(gc.cfg, gc.alg, gc.flows, gc.env)
	ref.run(equivWarmup)
	res := ref.measure(equivWindow)
	return goldenDigest(t, res, ref.rates())
}

// TestMeasureGolden checks every case, on the production loop and on the
// reference simulator, against the recorded digests. Run with -update to rewrite the file; do that only when
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
		prod := measureDigest(t, cases[name])
		if ref := referenceDigest(t, cases[name]); ref != prod {
			t.Errorf("%s: production digest %s differs from the reference's %s", name, prod, ref)
		}
		got[name] = prod
	}
	// The deviating cases exist to pin adaptive decisions: each adaptive
	// scheme's digest must differ from XY's on the same flows.
	for _, seed := range deviatingSeeds {
		prefix := fmt.Sprintf("deviating/seed%d/", seed)
		for _, alg := range []string{"ICON", "PANR"} {
			if got[prefix+alg] == got[prefix+"XY"] {
				t.Errorf("%s%s: digest equals XY's; the case no longer exercises adaptive routing", prefix, alg)
			}
		}
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
