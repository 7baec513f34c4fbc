package core

import (
	"bytes"
	"math"
	"testing"

	"parm/internal/appmodel"
	"parm/internal/chip"
	"parm/internal/obs"
	"parm/internal/pdn"
	"parm/internal/power"
)

func node7() power.NodeParams { return power.MustParams(power.Node7) }

func genWorkload(t testing.TB, kind appmodel.WorkloadKind, n int, gap float64, seed int64) *appmodel.Workload {
	t.Helper()
	w, err := appmodel.Generate(appmodel.WorkloadConfig{
		Kind: kind, NumApps: n, ArrivalGap: gap, Node: node7(), Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runOne(t *testing.T, cfg Config, fw Framework, w *appmodel.Workload) *Metrics {
	t.Helper()
	eng, err := NewEngine(cfg, fw)
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestComboValidation(t *testing.T) {
	fw, err := Combo("PARM", "PANR")
	if err != nil || fw.Name != "PARM+PANR" || fw.FixedDoP != 0 {
		t.Errorf("Combo(PARM,PANR) = %+v, %v", fw, err)
	}
	fw, err = Combo("HM", "XY")
	if err != nil || fw.Name != "HM+XY" || fw.FixedDoP != 16 {
		t.Errorf("Combo(HM,XY) = %+v, %v", fw, err)
	}
	if _, err := Combo("BOGUS", "XY"); err == nil {
		t.Error("unknown mapper accepted")
	}
	if _, err := Combo("PARM", "BOGUS"); err == nil {
		t.Error("unknown routing accepted")
	}
}

func TestEvaluationFrameworks(t *testing.T) {
	fws := EvaluationFrameworks()
	want := []string{"HM+XY", "HM+ICON", "HM+PANR", "PARM+XY", "PARM+ICON", "PARM+PANR"}
	if len(fws) != len(want) {
		t.Fatalf("%d frameworks", len(fws))
	}
	for i, fw := range fws {
		if fw.Name != want[i] {
			t.Errorf("framework %d = %s, want %s", i, fw.Name, want[i])
		}
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	eng, err := NewEngine(Config{}, MustCombo("PARM", "XY"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(nil); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := eng.Run(&appmodel.Workload{}); err == nil {
		t.Error("empty workload accepted")
	}
	w := genWorkload(t, appmodel.WorkloadMixed, 2, 0.1, 1)
	w.Apps[1].ID = w.Apps[0].ID
	eng2, _ := NewEngine(Config{}, MustCombo("PARM", "XY"))
	if _, err := eng2.Run(w); err == nil {
		t.Error("duplicate app IDs accepted")
	}
	// chip.NoApp is -1: an app with that ID would leave its domains reading
	// as unoccupied.
	for _, id := range []int{-1, -7} {
		w := genWorkload(t, appmodel.WorkloadMixed, 2, 0.1, 1)
		w.Apps[0].ID = id
		eng, _ := NewEngine(Config{}, MustCombo("PARM", "XY"))
		if _, err := eng.Run(w); err == nil {
			t.Errorf("app ID %d accepted", id)
		}
	}
	if _, err := NewEngine(Config{}, Framework{Name: "broken"}); err == nil {
		t.Error("framework without mapper accepted")
	}
	// A FixedDoP outside {0} ∪ DoPValues used to pass NewEngine and panic
	// in Run when the APG was built.
	for _, dop := range []int{-4, 6, 36} {
		fw := MustCombo("HM", "XY")
		fw.FixedDoP = dop
		if _, err := NewEngine(Config{}, fw); err == nil {
			t.Errorf("FixedDoP %d accepted", dop)
		}
	}
	// FixedDoP 0 (the zero Framework's) selects the joint search for any
	// mapper, where it used to panic in Run.
	hm := MustCombo("HM", "XY")
	hm.FixedDoP = 0
	if m := runOne(t, Config{}, hm, genWorkload(t, appmodel.WorkloadCompute, 1, 0.1, 2)); m.Completed != 1 {
		t.Errorf("HM with FixedDoP 0 completed %d of 1 apps", m.Completed)
	}
}

// A chip mesh the NoC cannot simulate fails NewEngine before the chip is
// built, not at the first window of Run: 8192x4096 tiles overflow the NoC
// packet table, and building the chip would take gigabytes.
func TestNewEngineRejectsBadNoCConfig(t *testing.T) {
	cfg := Config{Chip: chip.Config{Width: 8192, Height: 4096}}
	if _, err := NewEngine(cfg, MustCombo("PARM", "PANR")); err == nil {
		t.Errorf("NewEngine accepted a %dx%d chip", cfg.Chip.Width, cfg.Chip.Height)
	}
}

func TestSingleAppCompletes(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadCompute, 1, 0.1, 2)
	m := runOne(t, Config{}, MustCombo("PARM", "PANR"), w)
	if m.Completed != 1 || m.Dropped != 0 {
		t.Fatalf("completed=%d dropped=%d", m.Completed, m.Dropped)
	}
	o := m.Apps[0]
	if o.State != StateCompleted {
		t.Fatalf("state = %v", o.State)
	}
	if o.Vdd < 0.4 || o.Vdd > 0.8 {
		t.Errorf("Vdd = %g outside platform range", o.Vdd)
	}
	if o.DoP%4 != 0 || o.DoP < 4 || o.DoP > 32 {
		t.Errorf("DoP = %d not a platform value", o.DoP)
	}
	if o.CompletedAt <= o.MappedAt {
		t.Error("completion not after mapping")
	}
	if m.TotalTime != o.CompletedAt {
		t.Errorf("TotalTime %g != completion %g", m.TotalTime, o.CompletedAt)
	}
	if m.PeakPSN <= 0 || m.AvgPSN <= 0 {
		t.Error("no PSN recorded")
	}
	if m.Samples == 0 {
		t.Error("no PSN samples taken")
	}
}

// On an empty chip, PARM picks the lowest Vdd with the highest feasible DoP
// (Algorithm 1's search order).
func TestPARMPrefersLowVddHighDoP(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadCompute, 1, 0.1, 2)
	m := runOne(t, Config{}, MustCombo("PARM", "XY"), w)
	o := m.Apps[0]
	p := node7()
	// Verify no lower Vdd would meet the deadline at any DoP >= chosen.
	for _, v := range p.VddLevels() {
		if v >= o.Vdd {
			break
		}
		if o.App.Bench.WCETEstimate(p, v, 32) < o.App.RelDeadline {
			t.Errorf("lower Vdd %.1f was feasible at DoP 32 but %.1f chosen", v, o.Vdd)
		}
	}
	if o.DoP != 32 {
		// 32 must have been infeasible at the chosen Vdd for this to be OK.
		if o.App.Bench.WCETEstimate(p, o.Vdd, 32) < o.App.RelDeadline {
			t.Errorf("DoP 32 feasible at %.1fV but %d chosen", o.Vdd, o.DoP)
		}
	}
}

// HM never adapts DoP.
func TestHMFixedDoP(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadMixed, 6, 0.15, 3)
	m := runOne(t, Config{SoftDeadlines: true}, MustCombo("HM", "XY"), w)
	for _, o := range m.Apps {
		if o.State == StateCompleted && o.DoP != 16 {
			t.Errorf("%s ran at DoP %d under HM", o.App, o.DoP)
		}
	}
}

// The chip and budget are fully restored once everything finishes.
func TestResourcesRestoredAfterRun(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadMixed, 5, 0.08, 4)
	eng, err := NewEngine(Config{SoftDeadlines: true}, MustCombo("PARM", "PANR"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(w); err != nil {
		t.Fatal(err)
	}
	c := eng.Chip()
	if used := c.Budget.Used(); math.Abs(float64(used)) > 1e-9 {
		t.Errorf("budget still holds %g W", used)
	}
	if free := len(c.FreeDomains()); free != c.NumDomains() {
		t.Errorf("%d domains still occupied", c.NumDomains()-free)
	}
}

// Deterministic: identical runs give identical metrics.
func TestEngineDeterministic(t *testing.T) {
	run := func() *Metrics {
		w := genWorkload(t, appmodel.WorkloadComm, 6, 0.06, 5)
		return runOne(t, Config{}, MustCombo("PARM", "PANR"), w)
	}
	m1, m2 := run(), run()
	if m1.TotalTime != m2.TotalTime || m1.PeakPSN != m2.PeakPSN ||
		m1.Completed != m2.Completed || m1.TotalVEs != m2.TotalVEs {
		t.Errorf("runs differ: %+v vs %+v", m1, m2)
	}
	for i := range m1.Apps {
		a, b := m1.Apps[i], m2.Apps[i]
		if a.Vdd != b.Vdd || a.DoP != b.DoP || a.CompletedAt != b.CompletedAt {
			t.Errorf("app %d differs", i)
		}
	}
}

// Byte-identical determinism: the fully serialized metrics of repeated
// identical runs must match byte for byte — the contract the
// sorted-iteration discipline (and the det analyzer that enforces it)
// protects. Stricter than
// TestEngineDeterministic: every field of every outcome is covered.
func TestEngineRunsByteIdentical(t *testing.T) {
	run := func() []byte {
		w := genWorkload(t, appmodel.WorkloadMixed, 6, 0.06, 14)
		m := runOne(t, Config{}, MustCombo("PARM", "PANR"), w)
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := run()
	if len(base) == 0 {
		t.Fatal("empty metrics JSON")
	}
	if rerun := run(); !bytes.Equal(rerun, base) {
		t.Error("two runs diverged")
	}
}

// An unmeetable deadline drops the app rather than wedging the queue.
func TestImpossibleDeadlineDropped(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadCompute, 2, 0.05, 6)
	w.Apps[0].RelDeadline = 1e-6 // one microsecond: impossible
	m := runOne(t, Config{}, MustCombo("PARM", "XY"), w)
	if m.Apps[0].State != StateDropped {
		t.Errorf("impossible app state = %v", m.Apps[0].State)
	}
	if m.Apps[1].State != StateCompleted {
		t.Errorf("follow-up app state = %v; queue wedged?", m.Apps[1].State)
	}
}

// Soft deadlines never drop.
func TestSoftDeadlinesNeverDrop(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadCompute, 10, 0.03, 7)
	m := runOne(t, Config{SoftDeadlines: true}, MustCombo("HM", "XY"), w)
	if m.Dropped != 0 {
		t.Errorf("%d apps dropped under soft deadlines", m.Dropped)
	}
	if m.Completed != 10 {
		t.Errorf("only %d/10 completed", m.Completed)
	}
}

// Oversubscription causes drops with hard deadlines, and a slower arrival
// rate completes at least as many apps (the Fig. 8 relationship).
func TestOversubscriptionDropsMonotone(t *testing.T) {
	done := map[float64]int{}
	for _, gap := range []float64{0.2, 0.05} {
		w := genWorkload(t, appmodel.WorkloadComm, 12, gap, 8)
		m := runOne(t, Config{}, MustCombo("HM", "XY"), w)
		done[gap] = m.Completed
		if m.Completed+m.Dropped+m.Unfinished != 12 {
			t.Errorf("gap %g: outcomes do not sum: %+v", gap, m)
		}
	}
	if done[0.2] < done[0.05] {
		t.Errorf("slower arrivals completed fewer apps: %v", done)
	}
	if done[0.05] == 12 {
		t.Error("no oversubscription pressure on HM at 0.05s gap")
	}
}

// PARM completes at least as many applications as HM under pressure — the
// headline claim of Fig. 8.
func TestPARMBeatsHMUnderPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	// A Fig. 8 operating point: 20 communication-intensive apps at 0.1 s.
	w1 := genWorkload(t, appmodel.WorkloadComm, 20, 0.1, 42)
	hm := runOne(t, Config{}, MustCombo("HM", "XY"), w1)
	w2 := genWorkload(t, appmodel.WorkloadComm, 20, 0.1, 42)
	parm := runOne(t, Config{}, MustCombo("PARM", "PANR"), w2)
	if parm.Completed <= hm.Completed {
		t.Errorf("PARM completed %d, HM %d; Fig 8 shape broken", parm.Completed, hm.Completed)
	}
}

// PARM's peak PSN stays below HM's — the headline claim of Fig. 7.
func TestPARMLowerPSNThanHM(t *testing.T) {
	w1 := genWorkload(t, appmodel.WorkloadCompute, 8, 0.08, 10)
	hm := runOne(t, Config{SoftDeadlines: true}, MustCombo("HM", "XY"), w1)
	w2 := genWorkload(t, appmodel.WorkloadCompute, 8, 0.08, 10)
	parm := runOne(t, Config{SoftDeadlines: true}, MustCombo("PARM", "PANR"), w2)
	if parm.PeakPSN >= hm.PeakPSN {
		t.Errorf("PARM peak %g not below HM %g", parm.PeakPSN, hm.PeakPSN)
	}
	if parm.AvgPSN >= hm.AvgPSN {
		t.Errorf("PARM avg %g not below HM %g", parm.AvgPSN, hm.AvgPSN)
	}
	if parm.TotalVEs > hm.TotalVEs {
		t.Errorf("PARM VEs %d above HM %d", parm.TotalVEs, hm.TotalVEs)
	}
}

// FCFS: applications are mapped in arrival order.
func TestFCFSMappingOrder(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadMixed, 8, 0.04, 11)
	m := runOne(t, Config{SoftDeadlines: true}, MustCombo("PARM", "XY"), w)
	prev := -1.0
	for _, o := range m.Apps {
		if o.State != StateCompleted {
			continue
		}
		if o.MappedAt < prev-1e-12 {
			t.Errorf("%s mapped at %g before its predecessor at %g", o.App, o.MappedAt, prev)
		}
		prev = o.MappedAt
	}
}

// Voltage emergencies charge rollback penalties: an HM run at high load has
// VEs, and apps with VEs take longer than their VE-free makespan.
func TestVEPenaltiesCharged(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadCompute, 6, 0.04, 12)
	m := runOne(t, Config{SoftDeadlines: true}, MustCombo("HM", "XY"), w)
	if m.TotalVEs == 0 {
		t.Skip("no VEs at this seed; penalty path not exercised")
	}
	sum := 0
	for _, o := range m.Apps {
		sum += o.VEs
	}
	if sum != m.TotalVEs {
		t.Errorf("per-app VEs %d != total %d", sum, m.TotalVEs)
	}
}

func TestMetricsAggregation(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadMixed, 6, 0.1, 13)
	m := runOne(t, Config{}, MustCombo("PARM", "PANR"), w)
	if len(m.Apps) != 6 {
		t.Fatalf("%d outcomes", len(m.Apps))
	}
	if m.Completed+m.Dropped+m.Unfinished != 6 {
		t.Error("outcome counts do not sum")
	}
	if m.Framework != "PARM+PANR" || m.Workload != "mixed" {
		t.Errorf("labels: %s / %s", m.Framework, m.Workload)
	}
}

func TestAppStateString(t *testing.T) {
	if StateCompleted.String() != "completed" || StateDropped.String() != "dropped" ||
		StateUnfinished.String() != "unfinished" {
		t.Error("AppState.String wrong")
	}
}

func TestLegacyVECount(t *testing.T) {
	th := pdn.VEThreshold
	for _, tc := range []struct {
		peak float64
		want int
	}{
		{th * 1.001, 1}, // barely over: one emergency
		{th * 1.13, 2},  // exceedance 0.13 -> 1 + int(1.04)
		{th * 1.5, 5},   // exceedance 0.5 -> 1 + 4
		{th * 2.0, 8},   // exceedance 1.0 -> 9, clamped
		{th * 10, 8},    // deep noise stays clamped
	} {
		if got := legacyVECount(tc.peak); got != tc.want {
			t.Errorf("legacyVECount(%g) = %d, want %d", tc.peak, got, tc.want)
		}
	}
}

// veHeavyConfig reproduces the TestVEPenaltiesCharged setup: an HM run at
// high load whose domains exceed the VE threshold.
func veHeavyWorkload(t *testing.T) *appmodel.Workload {
	t.Helper()
	return genWorkload(t, appmodel.WorkloadCompute, 6, 0.04, 12)
}

// runWithTimeline runs cfg over w capturing the event timeline.
func runWithTimeline(t *testing.T, cfg Config, w *appmodel.Workload) (*Metrics, *obs.Timeline) {
	t.Helper()
	eng, err := NewEngine(cfg, MustCombo("HM", "XY"))
	if err != nil {
		t.Fatal(err)
	}
	tl := obs.NewTimeline(1 << 14)
	eng.AttachTimeline(tl)
	m, err := eng.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return m, tl
}

// Each application must close exactly one residency span: the stale-event
// guard (engine.go, case evCompletion) discards completion events whose app
// was pushed back by VE penalties, so a double completion — which would
// record a second "app" span and corrupt resource accounting — never
// happens even when every VE reschedules the completion.
func TestStaleCompletionGuardSingleSpan(t *testing.T) {
	m, tl := runWithTimeline(t, Config{SoftDeadlines: true}, veHeavyWorkload(t))
	if m.TotalVEs == 0 {
		t.Skip("no VEs at this seed; guard not exercised")
	}
	spans := map[int]int{}
	for _, ev := range tl.Events() {
		if ev.Name == "app" {
			spans[ev.App]++
		}
	}
	for _, o := range m.Apps {
		want := 0
		if o.State == StateCompleted {
			want = 1
		}
		if got := spans[o.App.ID]; got != want {
			t.Errorf("app %d closed %d residency spans, want %d", o.App.ID, got, want)
		}
	}
}

// Outcomes stay current for applications the time cap leaves unfinished:
// VEs charged before the cap must be visible in the final metrics even
// though complete() never ran for the app.
func TestUnfinishedOutcomesStayCurrent(t *testing.T) {
	// Locate the first VE of the untruncated run, then rerun with the
	// safety cap just after it so the victim app cannot finish.
	_, tl := runWithTimeline(t, Config{SoftDeadlines: true}, veHeavyWorkload(t))
	var veT float64
	var veApp int = -1
	for _, ev := range tl.Events() {
		if ev.Name == "ve" {
			veT, veApp = ev.TS, ev.App
			break
		}
	}
	if veApp < 0 {
		t.Skip("no VEs at this seed")
	}
	eng, err := NewEngine(Config{SoftDeadlines: true}, MustCombo("HM", "XY"))
	if err != nil {
		t.Fatal(err)
	}
	eng.simTimeCap = veT + 1e-6
	m, err := eng.Run(veHeavyWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	var o *AppOutcome
	for i := range m.Apps {
		if m.Apps[i].App.ID == veApp {
			o = &m.Apps[i]
		}
	}
	if o == nil {
		t.Fatalf("app %d missing from outcomes", veApp)
	}
	if o.State == StateCompleted {
		t.Fatalf("app %d completed despite the cap at %g", veApp, eng.simTimeCap)
	}
	if o.VEs == 0 {
		t.Errorf("unfinished app %d lost its VE count", veApp)
	}
	if m.TotalVEs == 0 {
		t.Error("truncated run reports zero total VEs")
	}
}
