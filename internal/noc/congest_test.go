package noc

import (
	"fmt"
	"testing"

	"parm/internal/geom"
)

// Heavy scattered traffic: does routing algorithm choice matter?
func TestCongestionDifferentiation(t *testing.T) {
	var flows []Flow
	// 3 apps x 24 flows crossing the chip, aggregate ~12 flits/cycle.
	seeds := []struct{ s, d, n int }{{0, 59, 24}, {5, 50, 24}, {9, 30, 24}}
	for ai, sd := range seeds {
		for k := 0; k < sd.n; k++ {
			src := (sd.s + k*7) % 60
			dst := (sd.d + k*11) % 60
			if src == dst {
				dst = (dst + 1) % 60
			}
			flows = append(flows, Flow{App: ai, Src: geom.TileID(src), Dst: geom.TileID(dst), Rate: 0.17})
		}
	}
	// Realistic environment: a few hot 2x2 domains (active apps) amid
	// quiet tiles, as the engine produces.
	env := &Env{PSN: make([]float64, 60)}
	for _, hot := range [][]int{{22, 23, 32, 33}, {26, 27, 36, 37}, {2, 3, 12, 13}} {
		for _, t := range hot {
			env.PSN[t] = 0.07
		}
	}
	for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
		n, err := NewNetwork(Config{}, alg, flows, env)
		if err != nil {
			t.Fatal(err)
		}
		n.Run(1500)
		res := n.Measure(8000)
		totDel, totInj, lat, nlat, stall := 0, 0, 0.0, 0, 0
		worstCPF := 0.0
		for i, fs := range res.Flows {
			totDel += fs.DeliveredFlits
			totInj += fs.InjectedFlits
			stall += fs.StalledCycles
			if fs.DeliveredPackets > 0 {
				lat += fs.AvgPacketLatency()
				nlat++
			}
			ach := float64(fs.DeliveredFlits) / float64(res.Cycles)
			if ach > 0 && flows[i].Rate/ach > worstCPF {
				worstCPF = flows[i].Rate / ach
			}
		}
		maxU := 0.0
		for _, u := range res.RouterUtil {
			if u > maxU {
				maxU = u
			}
		}
		hotFw := 0
		for i, fw := range res.RouterForwarded {
			if env.PSN[i] > 0.05 {
				hotFw += fw
			}
		}
		fmt.Printf("%-10s delivered=%d/%d stallCyc=%d avgLat=%.1f worstCPF=%.2f maxUtil=%.3f hotFw=%d\n",
			alg.Name(), totDel, totInj, stall, lat/float64(nlat), worstCPF, maxU, hotFw)
	}
}
