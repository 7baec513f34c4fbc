package noc

import (
	"fmt"
	"testing"

	"parm/internal/geom"
)

func TestSmokeTraffic(t *testing.T) {
	for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
		flows := []Flow{
			{App: 0, Src: 0, Dst: 9, Rate: 0.3},
			{App: 0, Src: 9, Dst: 0, Rate: 0.3},
			{App: 1, Src: 12, Dst: 47, Rate: 0.5},
			{App: 1, Src: 47, Dst: 13, Rate: 0.5},
			{App: 1, Src: 22, Dst: 25, Rate: 0.8},
			{App: 1, Src: 23, Dst: 25, Rate: 0.8},
			{App: 1, Src: 24, Dst: 25, Rate: 0.8},
		}
		n, err := NewNetwork(Config{}, alg, flows, &Env{})
		if err != nil {
			t.Fatal(err)
		}
		res := n.Measure(10000)
		tot, lat := 0, 0.0
		for i, fs := range res.Flows {
			tot += fs.DeliveredFlits
			lat += fs.AvgPacketLatency()
			if fs.DeliveredPackets == 0 {
				t.Errorf("%s: flow %d delivered nothing", alg.Name(), i)
			}
		}
		maxUtil := 0.0
		for _, u := range res.RouterUtil {
			if u > maxUtil {
				maxUtil = u
			}
		}
		fmt.Printf("%-10s delivered=%d avgLatSum=%.1f maxUtil=%.3f\n", alg.Name(), tot, lat/float64(len(flows)), maxUtil)
		_ = geom.TileID(0)
	}
}
