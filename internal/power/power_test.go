package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNodeTableComplete(t *testing.T) {
	if len(Nodes) != 6 {
		t.Fatalf("Nodes has %d entries, want 6", len(Nodes))
	}
	for _, n := range Nodes {
		p, ok := Params(n)
		if !ok {
			t.Fatalf("Params(%v) missing", n)
		}
		if p.Node != n {
			t.Errorf("%v: Node field = %v", n, p.Node)
		}
		if p.VNTC <= p.VTh {
			t.Errorf("%v: VNTC %.2f not above threshold %.2f", n, p.VNTC, p.VTh)
		}
		if p.VNominal <= p.VNTC {
			t.Errorf("%v: VNominal %.2f not above VNTC %.2f", n, p.VNominal, p.VNTC)
		}
		if p.RBump <= 0 || p.LBump <= 0 || p.RGrid <= 0 || p.CDecap <= 0 {
			t.Errorf("%v: non-physical PDN params %+v", n, p)
		}
		if p.CEffCore <= 0 || p.CEffRouter <= 0 || p.FMax <= 0 {
			t.Errorf("%v: non-physical power params", n)
		}
	}
}

func TestParamsUnknownNode(t *testing.T) {
	if _, ok := Params(Node(14)); ok {
		t.Error("Params(14) succeeded for unknown node")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParams(14) did not panic")
		}
	}()
	MustParams(Node(14))
}

func TestNodeString(t *testing.T) {
	if Node7.String() != "7nm" || Node45.String() != "45nm" {
		t.Errorf("Node.String wrong: %s %s", Node7, Node45)
	}
}

// Technology scaling trends that drive the paper's Fig. 1: grid resistance
// rises and decap falls toward newer nodes.
func TestScalingTrends(t *testing.T) {
	for i := 1; i < len(Nodes); i++ {
		older := MustParams(Nodes[i-1])
		newer := MustParams(Nodes[i])
		if newer.RGrid <= older.RGrid {
			t.Errorf("RGrid not increasing from %v to %v", older.Node, newer.Node)
		}
		if newer.CDecap >= older.CDecap {
			t.Errorf("CDecap not decreasing from %v to %v", older.Node, newer.Node)
		}
		if newer.VNominal >= older.VNominal {
			t.Errorf("VNominal not decreasing from %v to %v", older.Node, newer.Node)
		}
	}
}

func TestFrequencyAtNominal(t *testing.T) {
	for _, n := range Nodes {
		p := MustParams(n)
		if got := p.Frequency(p.VNominal); math.Abs(got-p.FMax)/p.FMax > 1e-12 {
			t.Errorf("%v: Frequency(VNominal) = %g, want FMax %g", n, got, p.FMax)
		}
	}
}

func TestFrequencyBelowThreshold(t *testing.T) {
	p := MustParams(Node7)
	if p.Frequency(p.VTh) != 0 {
		t.Error("frequency at threshold not zero")
	}
	if p.Frequency(0.1) != 0 {
		t.Error("frequency below threshold not zero")
	}
	if p.Frequency(-1) != 0 {
		t.Error("frequency at negative vdd not zero")
	}
}

func TestFrequencyMonotonic(t *testing.T) {
	p := MustParams(Node7)
	prev := 0.0
	for v := p.VTh + 0.01; v <= p.VNominal; v += 0.01 {
		f := p.Frequency(v)
		if f <= prev {
			t.Fatalf("frequency not strictly increasing at %.2fV", v)
		}
		prev = f
	}
}

func TestDynamicPowerScaling(t *testing.T) {
	p := MustParams(Node7)
	// P = C V^2 f: doubling activity doubles dynamic power.
	p1 := p.DynamicCorePower(0.6, 0.4)
	p2 := p.DynamicCorePower(0.6, 0.8)
	if math.Abs(float64(p2-2*p1)) > 1e-12 {
		t.Errorf("dynamic power not linear in activity: %g vs %g", p1, p2)
	}
	// Activity is clamped to [0,1].
	if p.DynamicCorePower(0.6, 1.5) != p.DynamicCorePower(0.6, 1.0) {
		t.Error("activity above 1 not clamped")
	}
	if p.DynamicCorePower(0.6, -0.5) != 0 {
		t.Error("negative activity not clamped to zero")
	}
	// Power grows with Vdd (V^2 and f both increase).
	if p.DynamicCorePower(0.8, 0.5) <= p.DynamicCorePower(0.4, 0.5) {
		t.Error("dynamic power not increasing in Vdd")
	}
}

func TestLeakageBehavior(t *testing.T) {
	p := MustParams(Node7)
	want := float64(p.VNominal) * p.LeakCore
	if got := p.LeakagePower(p.VNominal, p.LeakCore); math.Abs(float64(got)-want) > 1e-12 {
		t.Errorf("leakage at nominal = %g, want %g", got, want)
	}
	if p.CoreLeakage(0.4) >= p.CoreLeakage(0.8) {
		t.Error("leakage not increasing in Vdd")
	}
	if p.RouterLeakage(0.6) >= p.CoreLeakage(0.6) {
		t.Error("router leaks more than core")
	}
}

func TestTilePowerComposition(t *testing.T) {
	p := MustParams(Node7)
	v := Volts(0.6)
	sum := p.DynamicCorePower(v, 0.9) + p.CoreLeakage(v) +
		p.DynamicRouterPower(v, 0.3) + p.RouterLeakage(v)
	if got := p.TilePower(v, 0.9, 0.3); math.Abs(float64(got-sum)) > 1e-12 {
		t.Errorf("TilePower = %g, want %g", got, sum)
	}
}

func TestTileCurrent(t *testing.T) {
	p := MustParams(Node7)
	v := Volts(0.5)
	want := float64(p.TilePower(v, 0.5, 0.2)) / float64(v)
	if got := p.TileCurrent(v, 0.5, 0.2); math.Abs(got-want) > 1e-12 {
		t.Errorf("TileCurrent = %g, want %g", got, want)
	}
	if p.TileCurrent(0, 0.5, 0.2) != 0 {
		t.Error("TileCurrent at zero Vdd not zero")
	}
}

// Dark silicon: at nominal voltage a fully lit 60-tile chip must exceed the
// 65 W budget, while at NTC it must fit — the premise of the paper.
func TestDarkSiliconPremise(t *testing.T) {
	p := MustParams(Node7)
	chipNominal := 60 * p.TilePower(p.VNominal, 0.9, 0.4)
	chipNTC := 60 * p.TilePower(p.VNTC, 0.9, 0.4)
	if chipNominal < 65*1.3 {
		t.Errorf("chip at nominal = %.1f W; dark silicon premise needs well above 65 W", chipNominal)
	}
	if chipNTC > 65*0.5 {
		t.Errorf("chip at NTC = %.1f W; NTC should fit comfortably under 65 W", chipNTC)
	}
}

// NoC power share: at full router utilization the router should consume
// roughly 18-30% of tile power for communication-heavy operation (§1: NoCs
// consume a significant share of chip power).
func TestRouterPowerShare(t *testing.T) {
	p := MustParams(Node7)
	v := p.VNTC
	router := p.DynamicRouterPower(v, 1.0) + p.RouterLeakage(v)
	tile := p.TilePower(v, 0.9, 1.0)
	share := router / tile
	if share < 0.15 || share > 0.40 {
		t.Errorf("router power share = %.2f, want 0.15-0.40", share)
	}
}

func TestVddLevels(t *testing.T) {
	p := MustParams(Node7)
	levels := p.VddLevels()
	want := []float64{0.4, 0.5, 0.6, 0.7, 0.8}
	if len(levels) != len(want) {
		t.Fatalf("VddLevels = %v, want %v", levels, want)
	}
	for i := range want {
		if math.Abs(float64(levels[i])-want[i]) > 1e-9 {
			t.Errorf("level %d = %g, want %g", i, levels[i], want[i])
		}
	}
}

func TestBudgetBasics(t *testing.T) {
	b := NewBudget(65)
	if b.limit != 65 || b.Used() != 0 || b.Available() != 65 {
		t.Fatal("fresh budget wrong")
	}
	if !b.Reserve(30) {
		t.Fatal("reserve 30 failed")
	}
	if !b.Reserve(35) {
		t.Fatal("reserve 35 failed")
	}
	if b.Reserve(0.1) {
		t.Fatal("over-reservation succeeded")
	}
	if b.Reserve(-5) {
		t.Fatal("negative reservation succeeded")
	}
	b.Release(35)
	if math.Abs(float64(b.Available()-35)) > 1e-9 {
		t.Errorf("available = %g, want 35", b.Available())
	}
	// Over-release clamps at zero used.
	b.Release(1000)
	if b.Used() != 0 {
		t.Errorf("used after over-release = %g", b.Used())
	}
}

func TestBudgetPanicsOnBadLimit(t *testing.T) {
	for _, w := range []Watts{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBudget(%g) did not panic", float64(w))
				}
			}()
			NewBudget(w)
		}()
	}
}

// Property: any sequence of successful reservations keeps used <= limit.
func TestBudgetNeverExceedsLimit(t *testing.T) {
	f := func(amounts []float64) bool {
		b := NewBudget(100)
		for _, a := range amounts {
			a = math.Mod(math.Abs(a), 60)
			b.Reserve(Watts(a))
			if b.Used() > b.limit+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: reserve followed by release restores the ledger.
func TestBudgetReserveReleaseRoundTrip(t *testing.T) {
	f := func(a float64) bool {
		a = math.Mod(math.Abs(a), 65)
		b := NewBudget(65)
		if !b.Reserve(Watts(a)) {
			return false
		}
		b.Release(Watts(a))
		return math.Abs(float64(b.Used())) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
