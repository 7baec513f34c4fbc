package pdn

import (
	"math"
	"testing"
	"testing/quick"

	"parm/internal/power"
)

func node7() power.NodeParams { return power.MustParams(power.Node7) }

func highOcc(p power.NodeParams, vdd power.Volts, staggered bool) [DomainTiles]TileOccupant {
	var occ [DomainTiles]TileOccupant
	for i := range occ {
		occ[i] = TileOccupant{IAvg: p.TileCurrent(vdd, 0.9, 0.4), Class: High, Staggered: staggered}
	}
	return occ
}

func TestDomainDistance(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 1}, {0, 3, 2}, {1, 2, 2}, {1, 3, 1}, {2, 3, 1},
	}
	for _, c := range cases {
		if got := DomainDistance(c.a, c.b); got != c.want {
			t.Errorf("DomainDistance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := DomainDistance(c.b, c.a); got != c.want {
			t.Errorf("DomainDistance(%d,%d) not symmetric", c.b, c.a)
		}
	}
}

func TestSimulateDomainIdle(t *testing.T) {
	var loads [DomainTiles]TileLoad
	res, err := SimulateDomain(Config{Params: node7(), Vdd: 0.5}, loads)
	if err != nil {
		t.Fatal(err)
	}
	if peak := res.DomainPeak(); peak > 1e-9 {
		t.Errorf("idle domain peak PSN = %g, want ~0", peak)
	}
	for i, v := range res.MinVoltage {
		if math.Abs(float64(v)-0.5) > 1e-9 {
			t.Errorf("idle tile %d min voltage %g, want 0.5", i, v)
		}
	}
}

func TestSimulateDomainConfigErrors(t *testing.T) {
	var loads [DomainTiles]TileLoad
	if _, err := SimulateDomain(Config{Params: node7(), Vdd: 0}, loads); err == nil {
		t.Error("zero Vdd accepted")
	}
	if _, err := SimulateDomain(Config{Vdd: 0.5}, loads); err == nil {
		t.Error("zero node params accepted")
	}
	bad := loads
	bad[0] = TileLoad{IAvg: -1}
	if _, err := SimulateDomain(Config{Params: node7(), Vdd: 0.5}, bad); err == nil {
		t.Error("negative current accepted")
	}
	bad = loads
	bad[1] = TileLoad{IAvg: 0.1, Activity: 1.5}
	if _, err := SimulateDomain(Config{Params: node7(), Vdd: 0.5}, bad); err == nil {
		t.Error("activity > 1 accepted")
	}
}

func TestSimulateDomainBasicPhysics(t *testing.T) {
	p := node7()
	res, err := SimulateDomain(Config{Params: p, Vdd: 0.5}, BuildLoads(highOcc(p, 0.5, false)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DomainTiles; i++ {
		if res.PeakPSN[i] <= 0 {
			t.Errorf("tile %d peak PSN not positive", i)
		}
		if res.AvgPSN[i] <= 0 || res.AvgPSN[i] > res.PeakPSN[i] {
			t.Errorf("tile %d avg PSN %g inconsistent with peak %g", i, res.AvgPSN[i], res.PeakPSN[i])
		}
		if res.MinVoltage[i] >= 0.5 || res.MinVoltage[i] <= 0 {
			t.Errorf("tile %d min voltage %g out of range", i, res.MinVoltage[i])
		}
		// Peak PSN and min voltage must agree.
		droop := float64(0.5-res.MinVoltage[i]) / 0.5
		if math.Abs(droop-res.PeakPSN[i]) > 1e-9 {
			t.Errorf("tile %d droop %g != peak %g", i, droop, res.PeakPSN[i])
		}
	}
	if res.Steps <= 0 {
		t.Error("no integration steps recorded")
	}
}

// Peak PSN grows with Vdd (paper Fig. 3a).
func TestPSNIncreasesWithVdd(t *testing.T) {
	p := node7()
	prev := 0.0
	for _, v := range p.VddLevels() {
		res, err := SimulateDomain(Config{Params: p, Vdd: v}, BuildLoads(highOcc(p, v, false)))
		if err != nil {
			t.Fatal(err)
		}
		if res.DomainPeak() <= prev {
			t.Fatalf("peak PSN not increasing at %.1fV: %g <= %g", v, res.DomainPeak(), prev)
		}
		prev = res.DomainPeak()
	}
}

// Peak PSN at NTC grows toward newer technology nodes (paper Fig. 1), and
// only sub-10nm nodes cross the 5% VE margin.
func TestPSNIncreasesWithTechScaling(t *testing.T) {
	prev := 0.0
	for _, n := range power.Nodes {
		p := power.MustParams(n)
		res, err := SimulateDomain(Config{Params: p, Vdd: p.VNTC}, BuildLoads(highOcc(p, p.VNTC, false)))
		if err != nil {
			t.Fatal(err)
		}
		peak := res.DomainPeak()
		if peak <= prev {
			t.Fatalf("peak PSN not increasing at %v: %g <= %g", n, peak, prev)
		}
		if n == power.Node45 && peak > VEThreshold {
			t.Errorf("45nm peak %g already above the VE margin", peak)
		}
		if n == power.Node7 && peak < VEThreshold {
			t.Errorf("7nm peak %g below the VE margin; Fig 1 premise broken", peak)
		}
		prev = peak
	}
}

// Staggering same-class threads cancels common-mode droop (the lever behind
// the PARM clustering heuristic).
func TestStaggeringReducesPeak(t *testing.T) {
	p := node7()
	for _, v := range []power.Volts{0.4, 0.6, 0.8} {
		aligned, err := SimulateDomain(Config{Params: p, Vdd: v}, BuildLoads(highOcc(p, v, false)))
		if err != nil {
			t.Fatal(err)
		}
		staggered, err := SimulateDomain(Config{Params: p, Vdd: v}, BuildLoads(highOcc(p, v, true)))
		if err != nil {
			t.Fatal(err)
		}
		if staggered.DomainPeak() >= aligned.DomainPeak()*0.8 {
			t.Errorf("at %.1fV staggering saved too little: %g vs %g",
				v, staggered.DomainPeak(), aligned.DomainPeak())
		}
	}
}

func pairOcc(p power.NodeParams, vdd power.Volts, a, b Class, sa, sb int) [DomainTiles]TileOccupant {
	var occ [DomainTiles]TileOccupant
	mk := func(c Class) TileOccupant {
		act := 0.9
		if c == Low {
			act = 0.35
		}
		return TileOccupant{IAvg: p.TileCurrent(vdd, act, 0.3), Class: c}
	}
	occ[sa], occ[sb] = mk(a), mk(b)
	return occ
}

// relInterference returns the maximum relative increase of a tile's peak
// PSN over running alone — the Fig. 3b quantity.
func relInterference(t *testing.T, a, b Class, sa, sb int) float64 {
	t.Helper()
	p := node7()
	cfg := Config{Params: p, Vdd: 0.5}
	pair, err := SimulateDomain(cfg, BuildLoads(pairOcc(p, 0.5, a, b, sa, sb)))
	if err != nil {
		t.Fatal(err)
	}
	solo := func(c Class, s int) float64 {
		var occ [DomainTiles]TileOccupant
		po := pairOcc(p, 0.5, c, c, s, s)
		occ[s] = po[s]
		r, err := SimulateDomain(cfg, BuildLoads(occ))
		if err != nil {
			t.Fatal(err)
		}
		return r.PeakPSN[s]
	}
	ra := (pair.PeakPSN[sa] - solo(a, sa)) / solo(a, sa)
	rb := (pair.PeakPSN[sb] - solo(b, sb)) / solo(b, sb)
	return math.Max(ra, rb)
}

// The Fig. 3b orderings: High-Low interferes more than High-High and
// Low-Low, and 2-hop separation interferes less than 1-hop.
func TestInterferenceOrdering(t *testing.T) {
	hl1 := relInterference(t, High, Low, 0, 1)
	hh1 := relInterference(t, High, High, 0, 1)
	ll1 := relInterference(t, Low, Low, 0, 1)
	hl2 := relInterference(t, High, Low, 0, 3)
	if hl1 <= hh1 {
		t.Errorf("High-Low interference %g not above High-High %g", hl1, hh1)
	}
	if hl1 <= ll1 {
		t.Errorf("High-Low interference %g not above Low-Low %g", hl1, ll1)
	}
	if hl2 >= hl1 {
		t.Errorf("2-hop interference %g not below 1-hop %g", hl2, hl1)
	}
	// The paper quantifies the distance effect as "up to 10% less".
	if (hl1-hl2)/hl1 < 0.03 {
		t.Errorf("distance effect too weak: 1hop %g vs 2hop %g", hl1, hl2)
	}
}

// DC sanity: with constant loads (activity 0) the solution settles to the
// resistive operating point, with droop proportional to current.
func TestDCOperatingPoint(t *testing.T) {
	p := node7()
	var loads [DomainTiles]TileLoad
	for i := range loads {
		loads[i] = TileLoad{IAvg: 0.3} // no switching component
	}
	res, err := SimulateDomain(Config{Params: p, Vdd: 0.5}, loads)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-computed DC droop: symmetric load means no grid current; drop =
	// Itotal*Rb + I*Rv.
	wantDrop := 4*0.3*p.RBump + 0.3*p.RGrid*1.5
	for i := 0; i < DomainTiles; i++ {
		gotDrop := float64(0.5 - res.MinVoltage[i])
		if math.Abs(gotDrop-wantDrop)/wantDrop > 0.02 {
			t.Errorf("tile %d DC drop %g, want %g", i, gotDrop, wantDrop)
		}
		// Peak and average coincide in steady state.
		if math.Abs(res.PeakPSN[i]-res.AvgPSN[i]) > 1e-6 {
			t.Errorf("tile %d DC peak %g != avg %g", i, res.PeakPSN[i], res.AvgPSN[i])
		}
	}
}

// Property: PSN grows monotonically with uniform load current.
func TestPSNMonotonicInCurrent(t *testing.T) {
	p := node7()
	f := func(scaleRaw uint8) bool {
		s := 0.1 + float64(scaleRaw)/255*0.8
		var small, large [DomainTiles]TileLoad
		for i := range small {
			small[i] = TileLoad{IAvg: 0.2 * s, Activity: 0.8}
			large[i] = TileLoad{IAvg: 0.2 * s * 1.5, Activity: 0.8}
		}
		rs, err1 := SimulateDomain(Config{Params: p, Vdd: 0.5}, small)
		rl, err2 := SimulateDomain(Config{Params: p, Vdd: 0.5}, large)
		return err1 == nil && err2 == nil && rl.DomainPeak() > rs.DomainPeak()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// The tabulated fast-path current waveform must match the analytic one.
func TestCurrentTableMatchesAnalytic(t *testing.T) {
	p := node7()
	loads := BuildLoads(highOcc(p, 0.5, true))
	c := newCircuit(Config{Params: p, Vdd: 0.5}, loads)
	h := 20e-12
	table := c.currentTable(h, 100, &[DomainTiles][]float64{})
	for k := 0; k <= 200; k++ {
		tm := float64(k) * h / 2
		for i := 0; i < DomainTiles; i++ {
			want := c.current(i, tm)
			got := table[i][k]
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("table[%d][%d] = %g, want %g", i, k, got, want)
			}
		}
	}
}

// The tabulated RK4 derivative path equals derivAt.
func TestDerivConsistency(t *testing.T) {
	p := node7()
	loads := BuildLoads(highOcc(p, 0.5, false))
	c := newCircuit(Config{Params: p, Vdd: 0.5}, loads)
	st, err := c.dcOperatingPoint(&solverScratch{})
	if err != nil {
		t.Fatal(err)
	}
	var cur [DomainTiles]float64
	for i := range cur {
		cur[i] = c.current(i, 3e-9)
	}
	d1 := c.deriv(st, &cur)
	d2 := c.derivAt(st, 3e-9)
	if math.Abs(d1.il-d2.il) > 1e-6*math.Abs(d2.il) || math.Abs(d1.vb-d2.vb) > 1e-6 {
		t.Error("deriv and derivAt disagree")
	}
}

// Determinism: identical inputs give bitwise identical results.
func TestSimulateDomainDeterministic(t *testing.T) {
	p := node7()
	loads := BuildLoads(highOcc(p, 0.6, true))
	r1, err1 := SimulateDomain(Config{Params: p, Vdd: 0.6}, loads)
	r2, err2 := SimulateDomain(Config{Params: p, Vdd: 0.6}, loads)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1 != *(&r2) {
		t.Error("repeated simulation differs")
	}
}

func TestResultAggregates(t *testing.T) {
	r := Result{PeakPSN: [DomainTiles]float64{0.01, 0.04, 0.02, 0.03},
		AvgPSN: [DomainTiles]float64{0.01, 0.02, 0.03, 0.04}}
	if r.DomainPeak() != 0.04 {
		t.Errorf("DomainPeak = %g", r.DomainPeak())
	}
	if math.Abs(r.DomainAvg()-0.025) > 1e-12 {
		t.Errorf("DomainAvg = %g", r.DomainAvg())
	}
}
