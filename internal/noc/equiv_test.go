package noc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"parm/internal/geom"
)

// This file pins the equivalence contract of DESIGN.md §11: the production
// cycle loop (bitsets, wakeup calendar, rate folds, packet table) must be
// cycle-exact against the naive reference simulator of reference_test.go —
// same Measure results, same observable rate estimates, bit for bit — and
// the analytic closed form must stay within its documented drift bounds on
// uncongested fixtures.

// equivFixtures covers the regimes the engine produces on the default 10x6
// mesh: Fig 6-shaped sparse traffic, the moderately loaded bench fixture, a hotspot,
// an empty-then-bursty corner with one dominant flow, and rates whose running
// sums straddle FlitsPerPacket under rounding (0.1, 1/3, 0.2 and 0.7 are
// inexact in binary, 1.0 saturates the injection port) next to one whose
// next crossing lies past the wakeup lookahead bound.
func equivFixtures() map[string][]Flow {
	hotspot := make([]Flow, 0, 8)
	for i := 1; i <= 8; i++ {
		hotspot = append(hotspot, Flow{App: i, Src: geom.TileID(i * 6), Dst: 30, Rate: 0.15})
	}
	return map[string][]Flow{
		"sparse":    sparseFlows(),
		"saturated": benchFlows(),
		"hotspot":   hotspot,
		"single":    {{Src: 0, Dst: 59, Rate: 0.3}},
		"rounding":  roundingFlows(),
	}
}

// roundingFlows gives each boundary rate its own source and destination.
func roundingFlows() []Flow {
	return []Flow{
		{Src: 0, Dst: 59, Rate: 0.1},
		{Src: 12, Dst: 47, Rate: 1.0 / 3},
		{Src: 25, Dst: 3, Rate: 0.2},
		{Src: 38, Dst: 21, Rate: 0.7},
		{Src: 51, Dst: 8, Rate: 1.0},
		{Src: 9, Dst: 50, Rate: 1e-4},
	}
}

// noisyEnv returns an Env with the given PSN at every tile of a 10x6 mesh.
func noisyEnv(psn float64) *Env {
	e := &Env{PSN: make([]float64, 60)}
	for i := range e.PSN {
		e.PSN[i] = psn
	}
	return e
}

// patternedEnv returns a 10x6 Env whose every third tile reads 0.08 and the
// rest 0.01, so PANR's quiet-alternative detours are taken.
func patternedEnv() *Env {
	e := &Env{PSN: make([]float64, 60)}
	for i := range e.PSN {
		if i%3 == 0 {
			e.PSN[i] = 0.08
		} else {
			e.PSN[i] = 0.01
		}
	}
	return e
}

// The equivalence suite's schedule: a warmup, then one measurement window.
const (
	equivWarmup = 1500
	equivWindow = 6000
)

// measureBoth runs the same fixture on the production network and on the
// reference simulator, with the equivalence suite's warmup+measure
// schedule.
func measureBoth(t *testing.T, cfg Config, alg Algorithm, flows []Flow, env *Env) (n *Network, ref *refSim, rn, rr *Result) {
	t.Helper()
	n, err := NewNetwork(cfg, alg, flows, env)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(equivWarmup)
	rn = n.Measure(equivWindow)
	ref = newRefSim(cfg, alg, flows, env)
	ref.run(equivWarmup)
	rr = ref.measure(equivWindow)
	return n, ref, rn, rr
}

// requireIdentical asserts the two runs are observably bit-identical:
// Measure results via DeepEqual and every router's IncomingRate estimate
// bitwise (//parm:floateq — this is an exactness check, not a tolerance
// check).
func requireIdentical(t *testing.T, name string, n *Network, ref *refSim, rn, rr *Result) {
	t.Helper()
	if !reflect.DeepEqual(rn, rr) {
		t.Errorf("%s: Measure diverged from the reference:\nnetwork:   %+v\nreference: %+v", name, rn, rr)
	}
	for tile, want := range ref.rates() {
		got := n.IncomingRate(geom.TileID(tile))
		//parm:floateq
		if got != want {
			t.Errorf("%s: tile %d IncomingRate network=%g reference=%g (diff %g)", name, tile, got, want, got-want)
		}
	}
}

// randomEquivCase is a seeded random flow set on one mesh size, with
// sensor readings drawn across PANR's quiet/noisy boundary.
type randomEquivCase struct {
	cfg   Config
	flows []Flow
	env   *Env
}

// randomEquivCases returns the seeded random cases: flow sets on 2x2, 3x3
// and 10x6 meshes, dense enough to congest the small meshes.
func randomEquivCases() map[string]randomEquivCase {
	cases := make(map[string]randomEquivCase)
	for _, m := range []struct{ w, h, flows int }{{2, 2, 4}, {3, 3, 8}, {10, 6, 24}} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(m.w)))
			tiles := m.w * m.h
			env := &Env{PSN: make([]float64, tiles)}
			for i := range env.PSN {
				env.PSN[i] = 0.08 * rng.Float64()
			}
			name := fmt.Sprintf("random%dx%d/seed%d", m.w, m.h, seed)
			cases[name] = randomEquivCase{
				cfg:   Config{Width: m.w, Height: m.h},
				flows: randomFlows(rng, tiles, m.flows, 0.05, 0.45),
				env:   env,
			}
		}
	}
	return cases
}

// TestActiveDenseEquivalence is the headline exactness test: for every
// routing scheme, on every equivalence fixture and on seeded random flow
// sets over three mesh sizes, the production loop and the reference
// simulator produce bit-identical measurements and rate estimates.
func TestActiveDenseEquivalence(t *testing.T) {
	for fxName, flows := range equivFixtures() {
		for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
			name := fxName + "/" + alg.Name()
			n, ref, rn, rr := measureBoth(t, Config{}, alg, flows, &Env{PSN: make([]float64, 60)})
			requireIdentical(t, name, n, ref, rn, rr)
		}
	}
	for caseName, rc := range randomEquivCases() {
		for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
			name := caseName + "/" + alg.Name()
			n, ref, rn, rr := measureBoth(t, rc.cfg, alg, rc.flows, rc.env)
			requireIdentical(t, name, n, ref, rn, rr)
		}
	}
}

// TestActiveDenseLockstep steps the production loop and the reference
// cycle by cycle and compares after every single cycle, so a divergence is
// caught at the cycle it first appears rather than smeared over a window.
// Staged-packet counts are compared every cycle too: they move exactly at
// accrual crossings, which the production loop reaches by scheduled
// wakeups and the reference by per-cycle adds.
func TestActiveDenseLockstep(t *testing.T) {
	type lockstepCase struct {
		cfg   Config
		alg   Algorithm
		flows []Flow
		env   *Env
	}
	zero := &Env{PSN: make([]float64, 60)}
	cases := map[string]lockstepCase{
		"sparse/XY":   {Config{}, XY{}, sparseFlows(), zero},
		"sparse/ICON": {Config{}, ICON{}, sparseFlows(), zero},
		"sparse/PANR": {Config{}, PANR{}, sparseFlows()[:25], zero},
	}
	for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
		cases["rounding/"+alg.Name()] = lockstepCase{Config{}, alg, roundingFlows(), zero}
	}
	rc := randomEquivCases()["random3x3/seed1"]
	cases["random3x3/seed1/PANR"] = lockstepCase{rc.cfg, PANR{}, rc.flows, rc.env}
	for name, tc := range cases {
		n, err := NewNetwork(tc.cfg, tc.alg, tc.flows, tc.env)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefSim(tc.cfg, tc.alg, tc.flows, tc.env)
		for c := 0; c < 3000; c++ {
			n.Step()
			ref.step()
			for tile, want := range ref.rates() {
				got := n.IncomingRate(geom.TileID(tile))
				//parm:floateq
				if got != want {
					t.Fatalf("%s cycle %d tile %d: IncomingRate network=%g reference=%g", name, c, tile, got, want)
				}
			}
			if !reflect.DeepEqual(n.staged, ref.staged) {
				t.Fatalf("%s cycle %d: staged packets network=%v reference=%v", name, c, n.staged, ref.staged)
			}
			if c%500 == 499 {
				if !reflect.DeepEqual(n.stats, ref.stats) {
					t.Fatalf("%s cycle %d: flow stats diverged\nnetwork:   %+v\nreference: %+v", name, c, n.stats, ref.stats)
				}
				for tile := range n.routers {
					if n.routers[tile].forwarded != ref.routers[tile].forwarded {
						t.Fatalf("%s cycle %d tile %d: forwarded network=%d reference=%d", name, c, tile, n.routers[tile].forwarded, ref.routers[tile].forwarded)
					}
				}
			}
		}
	}
}

// TestMeasureIgnoresPSN pins that XY and ICON do not read the sensor PSN:
// on every equivalence fixture and the deviating flow sets, their windows
// measure bit for bit alike under zero and patterned sensor PSN. PANR must tell the two apart on some fixture,
// or the patterned readings would not be a different input.
func TestMeasureIgnoresPSN(t *testing.T) {
	fixtures := equivFixtures()
	for _, seed := range deviatingSeeds {
		fixtures[fmt.Sprintf("deviating/seed%d", seed)] = deviatingFlows(seed)
	}
	panrDiffers := false
	for name, flows := range fixtures {
		for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
			var res [2]*Result
			var rates [2][]uint64
			for i, env := range []*Env{{PSN: make([]float64, 60)}, patternedEnv()} {
				n, err := NewNetwork(Config{}, alg, flows, env)
				if err != nil {
					t.Fatal(err)
				}
				n.Run(equivWarmup)
				res[i] = n.Measure(equivWindow)
				for tile := range n.routers {
					rates[i] = append(rates[i], math.Float64bits(n.IncomingRate(geom.TileID(tile))))
				}
			}
			same := reflect.DeepEqual(res[0], res[1]) && reflect.DeepEqual(rates[0], rates[1])
			switch {
			case alg.Name() == "PANR":
				panrDiffers = panrDiffers || !same
			case !same:
				t.Errorf("%s/%s: the window changed with sensor PSN alone", name, alg.Name())
			}
		}
	}
	if !panrDiffers {
		t.Error("PANR measured alike under zero and patterned PSN on every fixture")
	}
}

// TestFlowOrderPermutes reorders blocks of flows with disjoint source tiles,
// as the engine's flow list concatenates apps that own disjoint tiles, and
// requires Measure's per-flow stats to permute with the flows while router
// activity and rates stay bit for bit the same, under every routing scheme.
// A flow's index orders nothing but its wakeups within a cycle (the
// calendar's bucket lists) and its place in its source tile's injection
// round robin, which blocks keep; so the order in which a cycle's wakeups
// are processed cannot reach a result either.
func TestFlowOrderPermutes(t *testing.T) {
	fixtures := equivFixtures()
	for _, seed := range deviatingSeeds {
		fixtures[fmt.Sprintf("deviating/seed%d", seed)] = deviatingFlows(seed)
	}
	rng := rand.New(rand.NewSource(11))
	for name, flows := range fixtures {
		// One block per source tile, in first-appearance order, each
		// keeping its flows' order.
		var blocks [][]int
		blockOf := map[geom.TileID]int{}
		for i, f := range flows {
			b, ok := blockOf[f.Src]
			if !ok {
				b = len(blocks)
				blockOf[f.Src] = b
				blocks = append(blocks, nil)
			}
			blocks[b] = append(blocks[b], i)
		}
		if len(blocks) < 2 {
			continue
		}
		rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		var perm []int // perm[k] is the original index of permuted flow k
		for _, b := range blocks {
			perm = append(perm, b...)
		}
		permuted := make([]Flow, len(flows))
		for k, i := range perm {
			permuted[k] = flows[i]
		}
		for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
			env := patternedEnv()
			var res [2]*Result
			var rates [2][]uint64
			for i, fs := range [][]Flow{flows, permuted} {
				n, err := NewNetwork(Config{}, alg, fs, env)
				if err != nil {
					t.Fatal(err)
				}
				n.Run(equivWarmup)
				res[i] = n.Measure(equivWindow)
				for tile := range n.routers {
					rates[i] = append(rates[i], math.Float64bits(n.IncomingRate(geom.TileID(tile))))
				}
			}
			for k, i := range perm {
				if res[1].Flows[k] != res[0].Flows[i] {
					t.Errorf("%s/%s: flow %d measures %+v at position %d, %+v at %d", name, alg.Name(), i, res[1].Flows[k], k, res[0].Flows[i], i)
				}
			}
			if !reflect.DeepEqual(res[0].RouterForwarded, res[1].RouterForwarded) || !reflect.DeepEqual(res[0].RouterUtil, res[1].RouterUtil) {
				t.Errorf("%s/%s: router activity changed with the flow order", name, alg.Name())
			}
			if !reflect.DeepEqual(rates[0], rates[1]) {
				t.Errorf("%s/%s: incoming rates changed with the flow order", name, alg.Name())
			}
		}
	}
}

// flowWake is one pending accrual wakeup: flow is due at cycle.
type flowWake struct {
	cycle int
	flow  int
}

// pendingWakes lists n's pending wakeups in calendar order: by cycle from
// the current one, and within a cycle in bucket-list order; an empty
// bucket's head is -1. Every pending
// wakeup lies less than wakeBuckets cycles ahead, so a bucket's offset from
// the current cycle's bucket is its wakeups' distance in cycles.
func pendingWakes(n *Network) []flowWake {
	ws := []flowWake{}
	for k := 0; k < wakeBuckets; k++ {
		b := (n.cycle + k) & (wakeBuckets - 1)
		for f := n.wake.head[b]; f >= 0; f = n.wake.next[f] {
			ws = append(ws, flowWake{cycle: n.cycle + k, flow: int(f)})
		}
	}
	return ws
}

// TestWakeupsStageOrStall pins the exact-crossing wakeups: every wakeup the
// production loop processes stages or stalls a packet of its flow, unless
// it was booked wakeLookahead cycles after the flow's previous one. The
// rounding fixture's slowest flow must reach that bound. After every cycle
// each flow that can inject holds exactly one pending wakeup, no more than
// wakeLookahead cycles ahead, and no other flow holds one.
func TestWakeupsStageOrStall(t *testing.T) {
	for name, flows := range equivFixtures() {
		n, err := NewNetwork(Config{}, PANR{}, flows, &Env{PSN: make([]float64, 60)})
		if err != nil {
			t.Fatal(err)
		}
		last := make([]int, len(flows)) // cycle of each flow's previous wakeup
		for i := range last {
			last[i] = -1
		}
		var due []flowWake
		processed, atBound := 0, 0
		for c := 0; c < 7500; c++ {
			due = due[:0]
			pending := pendingWakes(n)
			for _, w := range pending {
				if w.cycle <= n.cycle {
					due = append(due, w)
				}
			}
			staged := append([]int(nil), n.staged...)
			stats := append([]FlowStats(nil), n.stats...)
			n.processWakeups()
			for _, w := range due {
				processed++
				crossed := n.staged[w.flow] > staged[w.flow] || n.stats[w.flow].StalledCycles > stats[w.flow].StalledCycles
				if !crossed {
					if w.cycle-last[w.flow] != wakeLookahead {
						t.Fatalf("%s: flow %d woke at cycle %d (previous %d) without staging or stalling", name, w.flow, w.cycle, last[w.flow])
					}
					atBound++
				}
				last[w.flow] = w.cycle
			}
			n.Step()
			booked := make([]int, len(flows))
			for _, w := range pendingWakes(n) {
				booked[w.flow]++
				if w.cycle < n.cycle || w.cycle > n.cycle+wakeLookahead {
					t.Fatalf("%s cycle %d: flow %d booked for cycle %d", name, n.cycle, w.flow, w.cycle)
				}
			}
			for i, f := range flows {
				want := 0
				if f.Src != f.Dst && f.Rate > 0 {
					want = 1
				}
				if booked[i] != want {
					t.Fatalf("%s cycle %d: flow %d holds %d pending wakeups, want %d", name, n.cycle, i, booked[i], want)
				}
			}
		}
		if processed == 0 {
			t.Errorf("%s: no wakeup processed", name)
		}
		if name == "rounding" && atBound == 0 {
			t.Errorf("%s: no wakeup reached the lookahead bound", name)
		}
	}
}

// TestAnalyticDrift bounds the closed form against the cycle simulation on
// uncongested fixtures. These are the documented drift bounds of the model
// (DESIGN.md §11): per-flow throughput within ±2 packets of window
// quantization, aggregate router utilization within 10%, mean packet latency
// within 35% (per-flow latency is NOT bounded here — deterministic
// phase-locked worm collisions between commensurate-rate flows are a
// cycle-sim artifact no load-based model reproduces).
func TestAnalyticDrift(t *testing.T) {
	for _, alg := range []Algorithm{XY{}, PANR{}} {
		env := &Env{PSN: make([]float64, 60)}
		flows := sparseFlows()
		cfg := Config{}.withDefaults()
		n, err := NewNetwork(cfg, alg, flows, env)
		if err != nil {
			t.Fatal(err)
		}
		n.Run(1500)
		ref := n.Measure(8000)
		res, rep, err := AnalyticMeasure(cfg, alg, flows, env, 8000)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Saturated {
			t.Fatalf("%s: sparse fixture reported saturated (MaxLoad %g)", alg.Name(), rep.MaxLoad)
		}

		var latRef, latAna float64
		var pktRef, pktAna int
		var utilRef, utilAna float64
		for i := range flows {
			fr, fa := ref.Flows[i], res.Flows[i]
			if d := fa.DeliveredPackets - fr.DeliveredPackets; d < -2 || d > 2 {
				t.Errorf("%s flow %d: analytic packets %d, cycle %d (drift > 2)", alg.Name(), i, fa.DeliveredPackets, fr.DeliveredPackets)
			}
			latRef += float64(fr.TotalPacketLatency)
			latAna += float64(fa.TotalPacketLatency)
			pktRef += fr.DeliveredPackets
			pktAna += fa.DeliveredPackets
		}
		for tile := range ref.RouterUtil {
			utilRef += ref.RouterUtil[tile]
			utilAna += res.RouterUtil[tile]
		}
		meanRef, meanAna := latRef/float64(pktRef), latAna/float64(pktAna)
		if rel := math.Abs(meanAna-meanRef) / meanRef; rel > 0.35 {
			t.Errorf("%s: analytic mean latency %g, cycle %g (rel drift %.3f > 0.35)", alg.Name(), meanAna, meanRef, rel)
		}
		if rel := math.Abs(utilAna-utilRef) / utilRef; rel > 0.10 {
			t.Errorf("%s: analytic aggregate util %g, cycle %g (rel drift %.3f > 0.10)", alg.Name(), utilAna, utilRef, rel)
		}
	}
}

// TestAnalyticZeroLoadExact pins the exact corner: a single flow on an
// otherwise idle mesh has the textbook zero-load latency hops+fpp, and the
// closed form must reproduce the cycle simulation's per-packet latency
// exactly there.
func TestAnalyticZeroLoadExact(t *testing.T) {
	env := &Env{PSN: make([]float64, 60)}
	flows := []Flow{{Src: 0, Dst: 9, Rate: 0.002}}
	cfg := Config{}.withDefaults()
	res, rep, err := AnalyticMeasure(cfg, XY{}, flows, env, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Saturated {
		t.Fatal("single sparse flow reported saturated")
	}
	fs := res.Flows[0]
	if fs.DeliveredPackets == 0 {
		t.Fatal("analytic window delivered nothing")
	}
	// 9 hops + 5 flits serialization, no contention terms.
	if got := fs.AvgPacketLatency(); got != 14 {
		t.Errorf("zero-load analytic latency = %g, want 14", got)
	}
}

// TestAnalyticSaturationDetection checks the guard the auto mode relies on:
// a hotspot whose ejection port is offered more than satLinkLoad must be
// flagged, a sparse fixture must not.
func TestAnalyticSaturationDetection(t *testing.T) {
	env := &Env{PSN: make([]float64, 60)}
	cfg := Config{}.withDefaults()
	hot := make([]Flow, 0, 8)
	for i := 1; i <= 8; i++ {
		hot = append(hot, Flow{Src: geom.TileID(i), Dst: 30, Rate: 0.2})
	}
	_, rep, err := AnalyticMeasure(cfg, XY{}, hot, env, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Saturated {
		t.Errorf("hotspot not flagged saturated (MaxLoad %g, threshold %g)", rep.MaxLoad, satLinkLoad)
	}
	if rep.MaxLoad < 1.0 {
		t.Errorf("hotspot MaxLoad = %g, want >= 1.0 (8 flows x 0.2 on one ejection port)", rep.MaxLoad)
	}
	_, rep, err = AnalyticMeasure(cfg, XY{}, sparseFlows(), env, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Saturated {
		t.Errorf("sparse fixture flagged saturated (MaxLoad %g)", rep.MaxLoad)
	}
}
