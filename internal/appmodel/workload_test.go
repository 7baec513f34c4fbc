package appmodel

import (
	"math"
	"math/rand"
	"testing"
)

func TestGenerateBasics(t *testing.T) {
	w, err := Generate(WorkloadConfig{
		Kind: WorkloadMixed, NumApps: 20, ArrivalGap: 0.1, Node: np7(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Apps) != 20 {
		t.Fatalf("got %d apps", len(w.Apps))
	}
	prev := -1.0
	for i, a := range w.Apps {
		if a.ID != i {
			t.Errorf("app %d has ID %d", i, a.ID)
		}
		if a.Arrival <= prev && i > 0 {
			t.Errorf("arrivals not strictly increasing at %d", i)
		}
		prev = a.Arrival
		if a.RelDeadline <= 0 {
			t.Errorf("app %d has non-positive deadline", i)
		}
	}
	if w.Apps[0].Arrival != 0 {
		t.Errorf("first arrival at %g, want 0", w.Apps[0].Arrival)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := WorkloadConfig{Kind: WorkloadComm, NumApps: 10, ArrivalGap: 0.05, Node: np7(), Seed: 9}
	w1, err1 := Generate(cfg)
	w2, err2 := Generate(cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range w1.Apps {
		a, b := w1.Apps[i], w2.Apps[i]
		if a.Bench.Name != b.Bench.Name || a.Arrival != b.Arrival || a.RelDeadline != b.RelDeadline {
			t.Fatalf("app %d differs between identical seeds", i)
		}
	}
}

// An injected Rand seeded with s must reproduce Seed: s exactly, and must
// take precedence over any Seed also set — the injection contract callers
// rely on to share one stream across several generators.
func TestGenerateInjectedRand(t *testing.T) {
	base := WorkloadConfig{Kind: WorkloadMixed, NumApps: 15, ArrivalGap: 0.1, Node: np7(), Seed: 11}
	bySeed, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}

	injected := base
	injected.Seed = 999 // must be ignored when Rand is set
	injected.Rand = rand.New(rand.NewSource(11))
	byRand, err := Generate(injected)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bySeed.Apps {
		a, b := bySeed.Apps[i], byRand.Apps[i]
		if a.Bench.Name != b.Bench.Name || a.Arrival != b.Arrival || a.RelDeadline != b.RelDeadline {
			t.Fatalf("app %d: injected rand(11) diverges from Seed: 11", i)
		}
	}

	// The stream advances: a second workload drawn from the same injected
	// Rand must differ from the first (fresh draws, not a reset).
	again := base
	again.Rand = injected.Rand
	w2, err := Generate(again)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range bySeed.Apps {
		if bySeed.Apps[i].Bench.Name != w2.Apps[i].Bench.Name || bySeed.Apps[i].Arrival != w2.Apps[i].Arrival {
			same = false
		}
	}
	if same {
		t.Error("second workload from a shared Rand repeated the first; stream did not advance")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	mk := func(seed int64) *Workload {
		w, err := Generate(WorkloadConfig{Kind: WorkloadMixed, NumApps: 10, ArrivalGap: 0.1, Node: np7(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w1, w2 := mk(1), mk(2)
	same := true
	for i := range w1.Apps {
		if w1.Apps[i].Bench.Name != w2.Apps[i].Bench.Name || w1.Apps[i].Arrival != w2.Apps[i].Arrival {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGeneratePoolMembership(t *testing.T) {
	inKind := func(k Kind, name string) bool {
		for _, b := range BenchmarksOfKind(k) {
			if b.Name == name {
				return true
			}
		}
		return false
	}
	w, err := Generate(WorkloadConfig{Kind: WorkloadComm, NumApps: 30, ArrivalGap: 0.1, Node: np7(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range w.Apps {
		if !inKind(CommIntensive, a.Bench.Name) {
			t.Errorf("comm workload contains %s", a.Bench.Name)
		}
	}
	w, err = Generate(WorkloadConfig{Kind: WorkloadCompute, NumApps: 30, ArrivalGap: 0.1, Node: np7(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range w.Apps {
		if !inKind(ComputeIntensive, a.Bench.Name) {
			t.Errorf("compute workload contains %s", a.Bench.Name)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(WorkloadConfig{Kind: WorkloadMixed, NumApps: 0, ArrivalGap: 0.1, Node: np7()}); err == nil {
		t.Error("zero apps accepted")
	}
	for _, gap := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := Generate(WorkloadConfig{Kind: WorkloadMixed, NumApps: 5, ArrivalGap: gap, Node: np7()}); err == nil {
			t.Errorf("gap %g accepted", gap)
		}
	}
	if _, err := Generate(WorkloadConfig{Kind: WorkloadKind(42), NumApps: 5, ArrivalGap: 0.1, Node: np7()}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// Deadlines must be achievable at some (Vdd, DoP): otherwise every app is
// dropped on arrival and the evaluation is vacuous.
func TestDeadlinesAchievable(t *testing.T) {
	p := np7()
	for _, kind := range WorkloadKinds {
		w, err := Generate(WorkloadConfig{Kind: kind, NumApps: 20, ArrivalGap: 0.1, Node: p, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range w.Apps {
			ok := false
			for _, v := range p.VddLevels() {
				for _, d := range DoPValues() {
					if a.Bench.WCETEstimate(p, v, d) < a.RelDeadline {
						ok = true
					}
				}
			}
			if !ok {
				t.Errorf("%s deadline %g unachievable at any operating point", a, a.RelDeadline)
			}
		}
	}
}

// The deadlines must also embody the paper's trade-off: achievable at NTC
// with wide parallelism for most apps, but not at NTC with the baseline's
// fixed DoP 16.
func TestDeadlinesForceTheTradeoff(t *testing.T) {
	p := np7()
	w, err := Generate(WorkloadConfig{Kind: WorkloadMixed, NumApps: 40, ArrivalGap: 0.1, Node: p, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lowVddWideOK, lowVddFixedOK := 0, 0
	for _, a := range w.Apps {
		if a.Bench.WCETEstimate(p, 0.5, 32) < a.RelDeadline {
			lowVddWideOK++
		}
		if a.Bench.WCETEstimate(p, p.VNTC, 16) < a.RelDeadline {
			lowVddFixedOK++
		}
	}
	if lowVddWideOK < len(w.Apps)*3/4 {
		t.Errorf("only %d/%d apps meet deadlines at 0.5V DoP 32", lowVddWideOK, len(w.Apps))
	}
	if lowVddFixedOK > len(w.Apps)/2 {
		t.Errorf("%d/%d apps meet deadlines at NTC DoP 16; baseline pressure missing", lowVddFixedOK, len(w.Apps))
	}
}

func TestWorkloadKindString(t *testing.T) {
	if WorkloadCompute.String() != "compute-intensive" ||
		WorkloadComm.String() != "communication-intensive" ||
		WorkloadMixed.String() != "mixed" {
		t.Error("WorkloadKind.String wrong")
	}
}
