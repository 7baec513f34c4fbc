// Chipview: drive the mapping layer directly — place two applications on
// the chip with PARM and HM and print ASCII views of the occupancy, the
// domain assignments, and the resulting PSN heatmap. Uppercase letters are
// High-activity tasks, lowercase Low; '*' marks tiles beyond the 5%
// voltage-emergency margin.
package main

import (
	"fmt"
	"log"

	"parm/internal/appmodel"
	"parm/internal/chip"
	"parm/internal/mapping"
	"parm/internal/power"
)

func main() {
	log.SetFlags(0)

	c, err := chip.New(chip.Config{})
	if err != nil {
		log.Fatal(err)
	}

	place := func(m mapping.Mapper, appID int, bench string, dop int, vdd power.Volts) {
		b, err := appmodel.BenchmarkByName(bench)
		if err != nil {
			log.Fatal(err)
		}
		g := b.Graph(dop)
		pl, ok := m.Map(c, g)
		if !ok {
			log.Fatalf("%s could not map %s at DoP %d", m.Name(), bench, dop)
		}
		for _, d := range pl.Domains {
			if err := c.AssignDomain(d, appID, vdd); err != nil {
				log.Fatal(err)
			}
		}
		for task := range g.Tasks {
			tile := pl.TaskTile[appmodel.TaskID(task)]
			if err := c.PlaceTask(tile, appID, task, g.Tasks[task].Activity); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%s mapped %s (DoP %d) at %.1f V onto domains %v; comm cost %.1f GB*hop\n",
			m.Name(), bench, dop, vdd, pl.Domains, mapping.CommCost(c.Mesh, g, pl)/1e9)
	}

	// App 0: fft, PSN-aware clustering at near-threshold voltage.
	place(mapping.PARM{}, 0, "fft", 16, 0.4)
	// App 1: swaptions, harmonic mapping at nominal voltage.
	place(mapping.HM{}, 1, "swaptions", 16, 0.8)

	fmt.Println("\ntile occupancy (A/a = app 0, B/b = app 1; upper = High activity):")
	fmt.Println(c.View())
	fmt.Println("domain assignments:")
	fmt.Println(c.DomainView())

	sample, err := c.SamplePSN(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PSN heatmap (digits ~ % of Vdd in half-percent steps, '*' = emergency):")
	fmt.Println(c.PSNView(sample.TilePeak))
	fmt.Printf("chip peak PSN: %.2f%% — the harmonically-scattered nominal-voltage app\n", sample.ChipPeak()*100)
	fmt.Println("dominates the noise; the PARM-clustered NTC app stays quiet.")
}
