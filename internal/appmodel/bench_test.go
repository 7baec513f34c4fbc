package appmodel

import (
	"testing"

	"parm/internal/pdn"
)

func TestThirteenBenchmarks(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 13 {
		t.Fatalf("got %d benchmarks, want 13", len(bs))
	}
	seen := map[string]bool{}
	for _, b := range bs {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
	}
}

// The two groups of §5.1, with radix appearing in both.
func TestBenchmarkGroups(t *testing.T) {
	comm := BenchmarksOfKind(CommIntensive)
	compute := BenchmarksOfKind(ComputeIntensive)
	if len(comm) != 7 {
		t.Errorf("comm group has %d benchmarks, want 7", len(comm))
	}
	if len(compute) != 7 {
		t.Errorf("compute group has %d benchmarks, want 7", len(compute))
	}
	inGroup := func(g []Benchmark, name string) bool {
		for _, b := range g {
			if b.Name == name {
				return true
			}
		}
		return false
	}
	for _, name := range []string{"cholesky", "fft", "radix", "raytrace", "dedup", "canneal", "vips"} {
		if !inGroup(comm, name) {
			t.Errorf("%s missing from comm group", name)
		}
	}
	for _, name := range []string{"swaptions", "fluidanimate", "streamcluster", "blackscholes", "radix", "bodytrack", "radiosity"} {
		if !inGroup(compute, name) {
			t.Errorf("%s missing from compute group", name)
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	b, err := BenchmarkByName("fft")
	if err != nil || b.Name != "fft" {
		t.Errorf("BenchmarkByName(fft) = %v, %v", b, err)
	}
	if _, err := BenchmarkByName("doom"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestBenchmarkParameterSanity(t *testing.T) {
	for _, b := range Benchmarks() {
		if b.WorkGCycles <= 0 {
			t.Errorf("%s: non-positive work", b.Name)
		}
		if b.SerialFrac < 0 || b.SerialFrac >= 0.5 {
			t.Errorf("%s: implausible serial fraction %g", b.Name, b.SerialFrac)
		}
		if b.HighTaskFrac <= 0 || b.HighTaskFrac > 1 {
			t.Errorf("%s: bad HighTaskFrac %g", b.Name, b.HighTaskFrac)
		}
		if b.CommMBTotal <= 0 {
			t.Errorf("%s: non-positive comm volume", b.Name)
		}
	}
}

// Communication-intensive benchmarks carry an order of magnitude more
// traffic than compute-intensive ones (the §5.1 workload split).
func TestCommVolumeSplit(t *testing.T) {
	minComm, maxCompute := 1e18, 0.0
	for _, b := range Benchmarks() {
		if b.Kind == CommIntensive && b.CommMBTotal < minComm {
			minComm = b.CommMBTotal
		}
		if b.Kind == ComputeIntensive && b.CommMBTotal > maxCompute {
			maxCompute = b.CommMBTotal
		}
	}
	if minComm < 3*maxCompute {
		t.Errorf("groups not separated: min comm %g vs max compute %g", minComm, maxCompute)
	}
}

func TestDoPValues(t *testing.T) {
	vals := DoPValues()
	if len(vals) != 8 {
		t.Fatalf("DoPValues = %v", vals)
	}
	for i, v := range vals {
		if v != 4*(i+1) {
			t.Errorf("DoPValues[%d] = %d, want %d", i, v, 4*(i+1))
		}
	}
	if vals[0] != MinDoP || vals[len(vals)-1] != MaxDoP {
		t.Error("DoP bounds inconsistent")
	}
}

func TestKindString(t *testing.T) {
	if ComputeIntensive.String() != "compute" || CommIntensive.String() != "comm" {
		t.Error("Kind.String wrong")
	}
}

func TestGraphValidAllBenchmarksAllDoPs(t *testing.T) {
	for _, b := range Benchmarks() {
		for _, dop := range DoPValues() {
			g := b.Graph(dop)
			if g.NumTasks() != dop {
				t.Fatalf("%s dop=%d: %d tasks", b.Name, dop, g.NumTasks())
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s dop=%d: %v", b.Name, dop, err)
			}
			if len(g.Edges) == 0 {
				t.Fatalf("%s dop=%d: no edges", b.Name, dop)
			}
		}
	}
}

func TestGraphDeterministic(t *testing.T) {
	for _, b := range Benchmarks()[:3] {
		g1, g2 := b.Graph(16), b.Graph(16)
		if len(g1.Edges) != len(g2.Edges) {
			t.Fatalf("%s: edge counts differ", b.Name)
		}
		for i := range g1.Edges {
			if g1.Edges[i] != g2.Edges[i] {
				t.Fatalf("%s: edge %d differs", b.Name, i)
			}
		}
		for i := range g1.Tasks {
			if g1.Tasks[i] != g2.Tasks[i] {
				t.Fatalf("%s: task %d differs", b.Name, i)
			}
		}
	}
}

func TestGraphPanicsOnBadDoP(t *testing.T) {
	b := Benchmarks()[0]
	for _, dop := range []int{0, 3, 5, 36, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Graph(%d) did not panic", dop)
				}
			}()
			b.Graph(dop)
		}()
	}
}

// Total edge volume equals the benchmark's CommMBTotal at every DoP: wider
// parallelism partitions the same data.
func TestVolumeConservedAcrossDoP(t *testing.T) {
	for _, b := range Benchmarks() {
		for _, dop := range []int{4, 16, 32} {
			g := b.Graph(dop)
			got := 0.0
			for _, e := range g.Edges {
				got += e.Volume
			}
			want := b.CommMBTotal * 1e6
			if got < want*0.999 || got > want*1.001 {
				t.Errorf("%s dop=%d: total volume %g, want %g", b.Name, dop, got, want)
			}
		}
	}
}

func TestHighTaskCount(t *testing.T) {
	for _, b := range Benchmarks() {
		for _, dop := range []int{8, 32} {
			g := b.Graph(dop)
			high := 0
			for _, task := range g.Tasks {
				if task.Activity == pdn.High {
					high++
				}
			}
			want := int(b.HighTaskFrac*float64(dop) + 0.999999)
			if high != want {
				t.Errorf("%s dop=%d: %d high tasks, want %d", b.Name, dop, high, want)
			}
		}
	}
}

// Work is conserved: task work sums to the benchmark total (within the
// deterministic imbalance jitter, which redistributes but keeps each task's
// share bounded).
func TestWorkDistribution(t *testing.T) {
	for _, b := range Benchmarks() {
		g := b.Graph(16)
		sum := 0.0
		for _, task := range g.Tasks {
			sum += task.WorkCycles
			if task.WorkCycles <= 0 {
				t.Errorf("%s: task %d has no work", b.Name, task.ID)
			}
		}
		total := b.WorkGCycles * 1e9
		if sum < total*0.8 || sum > total*1.25 {
			t.Errorf("%s: work sum %g far from total %g", b.Name, sum, total)
		}
	}
}

func TestEdgesBySortedVolume(t *testing.T) {
	g := Benchmarks()[0].Graph(16)
	sorted := g.EdgesBySortedVolume()
	if len(sorted) != len(g.Edges) {
		t.Fatal("sorted edge count differs")
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Volume > sorted[i-1].Volume {
			t.Fatalf("edges not sorted at %d", i)
		}
	}
	// Original must be untouched (no aliasing).
	before := append([]Edge(nil), g.Edges...)
	_ = g.EdgesBySortedVolume()
	for i := range before {
		if g.Edges[i] != before[i] {
			t.Fatal("EdgesBySortedVolume mutated the receiver")
		}
	}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	mk := func() *APG {
		return &APG{
			Bench: "x",
			Tasks: []Task{{ID: 0, Activity: pdn.High, WorkCycles: 1}, {ID: 1, Activity: pdn.Low, WorkCycles: 1}},
			Edges: []Edge{{Src: 0, Dst: 1, Volume: 10}},
		}
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g := mk()
	g.Tasks[1].ID = 5
	if g.Validate() == nil {
		t.Error("misnumbered task accepted")
	}
	g = mk()
	g.Edges[0].Dst = 9
	if g.Validate() == nil {
		t.Error("out-of-range edge accepted")
	}
	g = mk()
	g.Edges[0] = Edge{Src: 1, Dst: 1}
	if g.Validate() == nil {
		t.Error("self-loop accepted")
	}
	g = mk()
	g.Edges[0] = Edge{Src: 1, Dst: 0}
	if g.Validate() == nil {
		t.Error("anti-topological edge accepted")
	}
	g = mk()
	g.Edges[0].Volume = -1
	if g.Validate() == nil {
		t.Error("negative volume accepted")
	}
	g = mk()
	g.Tasks[0].Activity = pdn.Idle
	if g.Validate() == nil {
		t.Error("idle-activity task accepted")
	}
	g = mk()
	g.Tasks[0].WorkCycles = -5
	if g.Validate() == nil {
		t.Error("negative work accepted")
	}
}
