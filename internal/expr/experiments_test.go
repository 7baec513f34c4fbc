package expr

import (
	"strconv"
	"strings"
	"testing"

	"parm/internal/appmodel"
	"parm/internal/core"
	"parm/internal/pdn"
	"parm/internal/power"
)

func cellVal(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", s)
	}
	return v
}

// Fig 1: one row per technology node, peak PSN strictly increasing, with
// only the sub-10nm nodes above the 5% margin.
func TestFig1Shape(t *testing.T) {
	tbl, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tbl.Rows))
	}
	prev := 0.0
	for i, row := range tbl.Rows {
		peak := cellVal(t, row[2])
		if peak <= prev {
			t.Errorf("row %d (%s): peak %g not increasing", i, row[0], peak)
		}
		prev = peak
	}
	if first := cellVal(t, tbl.Rows[0][2]); first >= 5 {
		t.Errorf("45nm already above margin: %g%%", first)
	}
	if last := cellVal(t, tbl.Rows[5][2]); last <= 5 {
		t.Errorf("7nm below margin: %g%%", last)
	}
}

// Fig 3a: peak PSN grows with Vdd for both workload types.
func TestFig3aShape(t *testing.T) {
	tbl, err := Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("%d rows, want 5 Vdd levels", len(tbl.Rows))
	}
	prevC, prevM := 0.0, 0.0
	for _, row := range tbl.Rows {
		c, m := cellVal(t, row[1]), cellVal(t, row[2])
		if c <= prevC || m <= prevM {
			t.Errorf("PSN not increasing at vdd=%s: compute %g comm %g", row[0], c, m)
		}
		prevC, prevM = c, m
	}
}

// Fig 3b: High-Low at 1 hop is the worst pair (normalized 1.0); its 2-hop
// variant interferes less; High-High and Low-Low interfere less than
// High-Low.
func TestFig3bShape(t *testing.T) {
	tbl, err := Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, row := range tbl.Rows {
		vals[row[0]] = cellVal(t, row[1])
	}
	if vals["High-Low 1hop"] != 1 {
		t.Errorf("High-Low 1hop = %g, want 1 (the normalization reference)", vals["High-Low 1hop"])
	}
	if vals["High-High 1hop"] >= vals["High-Low 1hop"] {
		t.Error("High-High interferes as much as High-Low")
	}
	if vals["Low-Low 1hop"] >= vals["High-Low 1hop"] {
		t.Error("Low-Low interferes as much as High-Low")
	}
	if vals["High-Low 2hop"] >= vals["High-Low 1hop"] {
		t.Error("2-hop High-Low not below 1-hop")
	}
}

// A scaled-down Fig 6/7 run: tables have one row per framework, PARM+PANR
// beats HM+XY on every workload, and PARM's PSN is lower.
func TestFig6and7SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime experiment")
	}
	opt := Options{NumApps: 8, Seed: 11}
	t6, t7, err := Fig6and7(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) != 6 || len(t7.Rows) != 6 {
		t.Fatalf("rows: fig6=%d fig7=%d", len(t6.Rows), len(t7.Rows))
	}
	row := func(tbl [][]string, name string) []string {
		for _, r := range tbl {
			if r[0] == name {
				return r
			}
		}
		t.Fatalf("row %s missing", name)
		return nil
	}
	hm6 := row(t6.Rows, "HM+XY")
	pp6 := row(t6.Rows, "PARM+PANR")
	for col := 1; col <= 3; col++ {
		if cellVal(t, pp6[col]) >= cellVal(t, hm6[col]) {
			t.Errorf("Fig6 col %d: PARM+PANR %s not below HM+XY %s", col, pp6[col], hm6[col])
		}
	}
	hm7 := row(t7.Rows, "HM+XY")
	pp7 := row(t7.Rows, "PARM+PANR")
	for col := 1; col <= 6; col++ {
		if cellVal(t, pp7[col]) >= cellVal(t, hm7[col]) {
			t.Errorf("Fig7 col %d: PARM+PANR PSN %s not below HM+XY %s", col, pp7[col], hm7[col])
		}
	}
}

// A scaled-down Fig 8 run: completion counts never exceed the sequence
// length and never increase as arrivals accelerate.
func TestFig8SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime experiment")
	}
	opt := Options{NumApps: 8, Seed: 11}
	tbl, err := Fig8(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 { // 4 frameworks x 2 workloads
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		a, b, c := cellVal(t, row[2]), cellVal(t, row[3]), cellVal(t, row[4])
		for _, v := range []float64{a, b, c} {
			if v < 0 || v > 8 {
				t.Errorf("%s/%s: completion %g out of range", row[0], row[1], v)
			}
		}
		if a < c {
			t.Errorf("%s/%s: faster arrivals completed more (%g < %g)", row[0], row[1], a, c)
		}
	}
}

func TestOverheadTable(t *testing.T) {
	tbl := OverheadTable()
	if len(tbl.Rows) != 8 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	if !strings.Contains(tbl.Title, "7nm") {
		t.Error("overhead table title missing node")
	}
}

func TestRunMetricsErrors(t *testing.T) {
	opt := Options{NumApps: -1}
	if _, err := RunMetrics(opt, core.MustCombo("PARM", "XY"), appmodel.WorkloadMixed, 0.1); err == nil {
		t.Error("negative app count accepted")
	}
}

// The figure experiments run on the paper's platform (§5.1) by default: a
// 10x6 mesh at 7nm with a 65 W DsPB.
func TestDefaultChipConfig(t *testing.T) {
	eng, err := core.NewEngine(Options{}.withDefaults().Engine, core.MustCombo("PARM", "PANR"))
	if err != nil {
		t.Fatal(err)
	}
	c := eng.Chip()
	if c.Mesh.Width != 10 || c.Mesh.Height != 6 || c.Budget.Available() != 65 || c.Node.Node != power.Node7 {
		t.Errorf("platform %dx%d, %g W, %v; want 10x6, 65 W, 7nm", c.Mesh.Width, c.Mesh.Height, float64(c.Budget.Available()), c.Node.Node)
	}
}

// The Fig 1 stress load exceeds the VE threshold at 7nm NTC while the
// managed (staggered) equivalent stays below it — the central premise that
// runtime management pays off.
func TestManagementPremise(t *testing.T) {
	p := power.MustParams(power.Node7)
	unmanaged, err := pdn.SimulateDomain(pdn.Config{Params: p, Vdd: p.VNTC}, highLoads(p, p.VNTC, false))
	if err != nil {
		t.Fatal(err)
	}
	managed, err := pdn.SimulateDomain(pdn.Config{Params: p, Vdd: p.VNTC}, highLoads(p, p.VNTC, true))
	if err != nil {
		t.Fatal(err)
	}
	if unmanaged.DomainPeak() <= pdn.VEThreshold {
		t.Errorf("unmanaged peak %g below threshold; nothing to manage", unmanaged.DomainPeak())
	}
	if managed.DomainPeak() >= pdn.VEThreshold {
		t.Errorf("managed peak %g above threshold; management insufficient", managed.DomainPeak())
	}
}
