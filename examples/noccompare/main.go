// Noccompare: drive the cycle-level NoC simulator directly with a synthetic
// hotspot traffic pattern and compare the three routing schemes of the paper
// (XY, ICON, PANR) on latency, throughput, and — the quantity
// PANR optimizes — switching activity at the routers of noisy tiles.
package main

import (
	"fmt"
	"log"
	"os"

	"parm/internal/geom"
	"parm/internal/noc"
	"parm/internal/report"
)

func main() {
	log.SetFlags(0)

	// Three "applications" with crossing flows over the 10x6 mesh.
	var flows []noc.Flow
	patterns := []struct{ s, d, n int }{{0, 59, 20}, {5, 50, 20}, {9, 30, 20}}
	for ai, p := range patterns {
		for k := 0; k < p.n; k++ {
			src := geom.TileID((p.s + k*7) % 60)
			dst := geom.TileID((p.d + k*11) % 60)
			if src == dst {
				dst = (dst + 1) % 60
			}
			flows = append(flows, noc.Flow{App: ai, Src: src, Dst: dst, Rate: 0.15})
		}
	}

	// Two active power domains read 7% PSN on their noise sensors; the
	// rest of the chip is quiet.
	env := &noc.Env{PSN: make([]float64, 60)}
	for _, hot := range []int{22, 23, 32, 33, 26, 27, 36, 37} {
		env.PSN[hot] = 0.07
	}

	t := report.NewTable("routing schemes under hotspot traffic (10k-cycle window)",
		"scheme", "delivered(flits)", "avgLatency(cyc)", "stalledCyc", "hotTileActivity")
	for _, alg := range []noc.Algorithm{noc.XY{}, noc.ICON{}, noc.PANR{}} {
		n, err := noc.NewNetwork(noc.Config{}, alg, flows, env)
		if err != nil {
			log.Fatal(err)
		}
		n.Run(2000) // warmup
		res := n.Measure(10000)

		delivered, stalled, lat, nlat := 0, 0, 0.0, 0
		for _, fs := range res.Flows {
			delivered += fs.DeliveredFlits
			stalled += fs.StalledCycles
			if fs.DeliveredPackets > 0 {
				lat += fs.AvgPacketLatency()
				nlat++
			}
		}
		hot := 0
		for i, fw := range res.RouterForwarded {
			if env.PSN[i] > 0.05 {
				hot += fw
			}
		}
		t.AddRow(alg.Name(), delivered, lat/float64(nlat), stalled, hot)
	}
	if err := t.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPANR steers flits away from tiles whose sensors report high supply noise,")
	fmt.Println("cutting router switching activity exactly where cores are already struggling.")

	o := noc.PANROverhead()
	fmt.Printf("\nPANR hardware overhead (7nm): +%.1f mW (%.1f%%), +%.0f um^2 (%.1f%%) per router\n",
		o.PowerMilliwatts, o.PowerPercent, o.AreaUm2, o.AreaPercent)
}
