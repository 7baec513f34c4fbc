// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus ablation benches for the design choices called out
// in DESIGN.md. Each figure bench regenerates a (scaled-down) version of
// the experiment per iteration and reports the headline quantities via
// b.ReportMetric, so `go test -bench=. -benchmem` both times the pipeline
// and reproduces the result shapes. cmd/experiments prints the full-size
// tables.
package parm

import (
	"testing"

	"parm/internal/appmodel"
	"parm/internal/chip"
	"parm/internal/core"
	"parm/internal/expr"
	"parm/internal/geom"
	"parm/internal/mapping"
	"parm/internal/noc"
	"parm/internal/pdn"
	"parm/internal/power"
)

// benchApps is the scaled-down sequence length used by the runtime benches
// (the paper uses 20; cmd/experiments runs full size).
const benchApps = 6

// BenchmarkFig1TechNodePSN regenerates Fig. 1: peak PSN at near-threshold
// voltage across technology nodes (45nm..7nm).
func BenchmarkFig1TechNodePSN(b *testing.B) {
	var last *pdn.Result
	for i := 0; i < b.N; i++ {
		for _, n := range power.Nodes {
			p := power.MustParams(n)
			var occ [pdn.DomainTiles]pdn.TileOccupant
			for k := range occ {
				occ[k] = pdn.TileOccupant{IAvg: p.TileCurrent(p.VNTC, 0.9, 0.4), Class: pdn.High}
			}
			res, err := pdn.SimulateDomain(pdn.Config{Params: p, Vdd: p.VNTC}, pdn.BuildLoads(occ))
			if err != nil {
				b.Fatal(err)
			}
			last = &res
			if n == power.Node7 {
				b.ReportMetric(res.DomainPeak()*100, "peakPSN7nm_%")
			}
		}
	}
	_ = last
}

// BenchmarkFig3aPSNvsVdd regenerates Fig. 3a: peak PSN versus supply
// voltage at 7nm.
func BenchmarkFig3aPSNvsVdd(b *testing.B) {
	p := power.MustParams(power.Node7)
	for i := 0; i < b.N; i++ {
		for _, v := range p.VddLevels() {
			var occ [pdn.DomainTiles]pdn.TileOccupant
			for k := range occ {
				occ[k] = pdn.TileOccupant{IAvg: p.TileCurrent(v, 0.9, 0.4), Class: pdn.High}
			}
			res, err := pdn.SimulateDomain(pdn.Config{Params: p, Vdd: v}, pdn.BuildLoads(occ))
			if err != nil {
				b.Fatal(err)
			}
			switch v {
			case 0.4:
				b.ReportMetric(res.DomainPeak()*100, "peak@0.4V_%")
			case 0.8:
				b.ReportMetric(res.DomainPeak()*100, "peak@0.8V_%")
			}
		}
	}
}

// BenchmarkFig3bInterference regenerates Fig. 3b: normalized PSN
// interference between task pairs of different switching activity at 1 and
// 2 hop separation.
func BenchmarkFig3bInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := expr.Fig3b()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) != 6 {
			b.Fatalf("unexpected table shape: %d rows", len(tbl.Rows))
		}
	}
}

// runtimeBench runs one scaled (framework, workload, gap) cell per
// iteration and reports the metrics the corresponding figure plots.
func runtimeBench(b *testing.B, mapper, routing string, kind appmodel.WorkloadKind, gap float64, soft bool) {
	fw := core.MustCombo(mapper, routing)
	for i := 0; i < b.N; i++ {
		node := power.MustParams(power.Node7)
		w, err := appmodel.Generate(appmodel.WorkloadConfig{
			Kind: kind, NumApps: benchApps, ArrivalGap: gap, Node: node, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewEngine(core.Config{SoftDeadlines: soft}, fw)
		if err != nil {
			b.Fatal(err)
		}
		m, err := eng.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.TotalTime, "totalTime_s")
		b.ReportMetric(m.PeakPSN*100, "peakPSN_%")
		b.ReportMetric(float64(m.Completed), "completed")
	}
}

// BenchmarkFig6ExecutionTime regenerates Fig. 6 (total execution time) for
// the paper's six framework combinations on the mixed workload.
func BenchmarkFig6ExecutionTime(b *testing.B) {
	for _, combo := range [][2]string{
		{"HM", "XY"}, {"HM", "ICON"}, {"HM", "PANR"},
		{"PARM", "XY"}, {"PARM", "ICON"}, {"PARM", "PANR"},
	} {
		b.Run(combo[0]+"+"+combo[1], func(b *testing.B) {
			runtimeBench(b, combo[0], combo[1], appmodel.WorkloadMixed, 0.05, true)
		})
	}
}

// BenchmarkEngineRunFig6Cell times one Fig. 6 cell (PARM+PANR, mixed
// workload) end to end, the evaluation's unit of work.
func BenchmarkEngineRunFig6Cell(b *testing.B) {
	fw := core.MustCombo("PARM", "PANR")
	node := power.MustParams(power.Node7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := appmodel.Generate(appmodel.WorkloadConfig{
			Kind: appmodel.WorkloadMixed, NumApps: benchApps, ArrivalGap: 0.05,
			Node: node, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewEngine(core.Config{SoftDeadlines: true}, fw)
		if err != nil {
			b.Fatal(err)
		}
		m, err := eng.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.TotalTime, "totalTime_s")
	}
}

// BenchmarkFig7PSN regenerates Fig. 7 (peak and average PSN) for the two
// extreme frameworks on the communication-intensive workload.
func BenchmarkFig7PSN(b *testing.B) {
	for _, combo := range [][2]string{{"HM", "XY"}, {"PARM", "PANR"}} {
		b.Run(combo[0]+"+"+combo[1], func(b *testing.B) {
			runtimeBench(b, combo[0], combo[1], appmodel.WorkloadComm, 0.05, true)
		})
	}
}

// BenchmarkFig8Completed regenerates Fig. 8 (applications completed under
// oversubscription) across arrival gaps for HM+XY and PARM+PANR.
func BenchmarkFig8Completed(b *testing.B) {
	for _, combo := range [][2]string{{"HM", "XY"}, {"PARM", "PANR"}} {
		for _, gap := range []float64{0.2, 0.1, 0.05} {
			name := combo[0] + "+" + combo[1] + "/gap=" + map[float64]string{0.2: "0.2s", 0.1: "0.1s", 0.05: "0.05s"}[gap]
			b.Run(name, func(b *testing.B) {
				runtimeBench(b, combo[0], combo[1], appmodel.WorkloadCompute, gap, false)
			})
		}
	}
}

// BenchmarkTableOverhead regenerates the §4.4 PANR router overhead
// accounting.
func BenchmarkTableOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := noc.PANROverhead()
		b.ReportMetric(o.PowerMilliwatts, "power_mW")
		b.ReportMetric(o.AreaUm2, "area_um2")
	}
}

// BenchmarkAblationClustering compares PARM's same-activity clustering with
// communication-only clustering: the PSN cost of ignoring activity classes
// (DESIGN.md §5).
func BenchmarkAblationClustering(b *testing.B) {
	bench := appmodel.Benchmarks()[1] // fft: mixed High/Low tasks
	p := power.MustParams(power.Node7)
	run := func(b *testing.B, mapper mapping.Mapper) {
		for i := 0; i < b.N; i++ {
			c, err := chipForBench()
			if err != nil {
				b.Fatal(err)
			}
			g := bench.Graph(16)
			pl, ok := mapper.Map(c, g)
			if !ok {
				b.Fatal("mapping failed")
			}
			for _, d := range pl.Domains {
				if err := c.AssignDomain(d, 1, 0.5); err != nil {
					b.Fatal(err)
				}
			}
			for task, tile := range pl.TaskTile {
				if err := c.PlaceTask(tile, 1, int(task), g.Tasks[task].Activity); err != nil {
					b.Fatal(err)
				}
			}
			s, err := c.SamplePSN(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(s.ChipPeak()*100, "peakPSN_%")
			b.ReportMetric(mapping.CommCost(c.Mesh, g, pl)/1e9, "commCost_GBhop")
		}
	}
	_ = p
	b.Run("activityAware", func(b *testing.B) { run(b, mapping.PARM{}) })
	b.Run("commOnly", func(b *testing.B) { run(b, mapping.PARM{IgnoreActivity: true}) })
}

// BenchmarkAblationSearchOrder compares Algorithm 1's lowest-Vdd-first
// search with a highest-Vdd-first variant: the power and PSN cost of
// greedily taking the fastest operating point.
func BenchmarkAblationSearchOrder(b *testing.B) {
	for _, tc := range []struct {
		name         string
		highVddFirst bool
	}{{"lowVddFirst", false}, {"highVddFirst", true}} {
		b.Run(tc.name, func(b *testing.B) {
			fw := core.MustCombo("PARM", "PANR")
			fw.HighVddFirst = tc.highVddFirst
			for i := 0; i < b.N; i++ {
				node := power.MustParams(power.Node7)
				w, err := appmodel.Generate(appmodel.WorkloadConfig{
					Kind: appmodel.WorkloadCompute, NumApps: benchApps, ArrivalGap: 0.05,
					Node: node, Seed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				eng, err := core.NewEngine(core.Config{SoftDeadlines: true}, fw)
				if err != nil {
					b.Fatal(err)
				}
				m, err := eng.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.PeakPSN*100, "peakPSN_%")
				b.ReportMetric(float64(m.TotalVEs), "VEs")
			}
		})
	}
}

// BenchmarkAblationPANRThreshold sweeps PANR's buffer-occupancy threshold B
// around the paper's 50% operating point (§5.1).
func BenchmarkAblationPANRThreshold(b *testing.B) {
	for _, th := range []float64{0.25, 0.5, 0.75} {
		name := map[float64]string{0.25: "B=25%", 0.5: "B=50%", 0.75: "B=75%"}[th]
		b.Run(name, func(b *testing.B) {
			flows := hotspotFlows()
			env := &noc.Env{PSN: make([]float64, 60)}
			for _, hot := range []int{22, 23, 32, 33} {
				env.PSN[hot] = 0.07
			}
			for i := 0; i < b.N; i++ {
				n, err := noc.NewNetwork(noc.Config{}, noc.PANR{Threshold: th}, flows, env)
				if err != nil {
					b.Fatal(err)
				}
				n.Run(1500)
				res := n.Measure(6000)
				lat, cnt := 0.0, 0
				for _, fs := range res.Flows {
					if fs.DeliveredPackets > 0 {
						lat += fs.AvgPacketLatency()
						cnt++
					}
				}
				b.ReportMetric(lat/float64(cnt), "avgLatency_cyc")
			}
		})
	}
}

// BenchmarkAblationSensorBits sweeps the PSN sensor quantization used by
// PANR's hop selection.
func BenchmarkAblationSensorBits(b *testing.B) {
	for _, bits := range []uint{3, 6, 10} {
		name := map[uint]string{3: "3bit", 6: "6bit", 10: "10bit"}[bits]
		b.Run(name, func(b *testing.B) {
			fw := core.MustCombo("PARM", "PANR")
			for i := 0; i < b.N; i++ {
				node := power.MustParams(power.Node7)
				w, err := appmodel.Generate(appmodel.WorkloadConfig{
					Kind: appmodel.WorkloadComm, NumApps: benchApps, ArrivalGap: 0.05,
					Node: node, Seed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				eng, err := core.NewEngine(core.Config{SoftDeadlines: true, SensorBits: bits}, fw)
				if err != nil {
					b.Fatal(err)
				}
				m, err := eng.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.PeakPSN*100, "peakPSN_%")
			}
		})
	}
}

// hotspotFlows builds the synthetic crossing traffic used by the NoC-level
// benches.
func hotspotFlows() []noc.Flow {
	var flows []noc.Flow
	for i := 0; i < 40; i++ {
		src := geom.TileID((i * 7) % 60)
		dst := geom.TileID((i*11 + 29) % 60)
		if src == dst {
			dst = (dst + 1) % 60
		}
		flows = append(flows, noc.Flow{App: i % 3, Src: src, Dst: dst, Rate: 0.12})
	}
	return flows
}

// chipForBench builds a fresh default chip for mapping benches.
func chipForBench() (*chip.Chip, error) {
	return chip.New(chip.Config{})
}
