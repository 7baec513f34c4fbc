package noc

import (
	"math"
	"testing"

	"parm/internal/geom"
)

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(Config{}, nil, nil, &Env{}); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := NewNetwork(Config{}, XY{}, []Flow{{Src: -1, Dst: 5, Rate: 0.1}}, &Env{}); err == nil {
		t.Error("negative source tile accepted")
	}
	if _, err := NewNetwork(Config{}, XY{}, []Flow{{Src: 0, Dst: 600, Rate: 0.1}}, &Env{}); err == nil {
		t.Error("out-of-mesh destination accepted")
	}
	if _, err := NewNetwork(Config{}, XY{}, []Flow{{Src: 0, Dst: 5, Rate: -1}}, &Env{}); err == nil {
		t.Error("negative rate accepted")
	}
}

// Flow rates must be finite and non-negative. Before they were checked, a
// NaN rate silently injected nothing and a +Inf rate injected every cycle
// while reporting every cycle stalled.
func TestNewNetworkRejectsBadRate(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
		ok   bool
	}{
		{"negative", -0.1, false},
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
		{"zero", 0, true},
		{"above link capacity", 7, true},
	} {
		flows := []Flow{{Src: 0, Dst: 5, Rate: tc.rate}}
		if _, err := NewNetwork(Config{}, XY{}, flows, &Env{}); (err == nil) != tc.ok {
			t.Errorf("%s rate: NewNetwork error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if _, _, err := AnalyticMeasure(Config{}, XY{}, flows, &Env{}, 100); (err == nil) != tc.ok {
			t.Errorf("%s rate: AnalyticMeasure error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// Out-of-range config fields are errors from NewNetwork (and so from
// AnalyticMeasure) and from Config.Validate, not panics, wedged worms, or
// silent acceptance.
func TestNewNetworkRejectsBadConfig(t *testing.T) {
	flows := []Flow{{Src: 0, Dst: 5, Rate: 0.1}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative BufferFlits", Config{BufferFlits: -1}},
		{"negative FlitsPerPacket", Config{FlitsPerPacket: -1}},
		{"negative StagedPackets", Config{StagedPackets: -1}},
		{"negative RateEWMA", Config{RateEWMA: -0.1}},
		{"RateEWMA above 1", Config{RateEWMA: 1.5}},
		{"NaN RateEWMA", Config{RateEWMA: math.NaN()}},
		{"NaN OccupancyThreshold", Config{OccupancyThreshold: math.NaN()}},
		{"negative OccupancyThreshold", Config{OccupancyThreshold: -0.5}},
		{"NaN SatLinkLoad", Config{SatLinkLoad: math.NaN()}},
		{"negative SatLinkLoad", Config{SatLinkLoad: -1}},
		{"tile count beyond int32", Config{Width: 1 << 16, Height: 1 << 16}},
		{"packet table beyond flit handles", Config{Width: 1 << 12, Height: 1 << 12, BufferFlits: 1 << 6}},
	} {
		if _, err := NewNetwork(tc.cfg, XY{}, flows, &Env{}); err == nil {
			t.Errorf("%s: NewNetwork accepted %+v", tc.name, tc.cfg)
		}
		if _, _, err := AnalyticMeasure(tc.cfg, XY{}, flows, &Env{}, 100); err == nil {
			t.Errorf("%s: AnalyticMeasure accepted %+v", tc.name, tc.cfg)
		}
		if tc.cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
	}
	// The boundaries of the valid ranges still build.
	for _, cfg := range []Config{{RateEWMA: 1}, {FlitsPerPacket: 1}, {BufferFlits: 1}} {
		if _, err := NewNetwork(cfg, XY{}, flows, &Env{}); err != nil {
			t.Errorf("%+v rejected: %v", cfg, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", cfg, err)
		}
	}
}

// A zero-cycle window has no utilization to report; it must read 0, not the
// NaN of 0/0.
func TestMeasureZeroCycles(t *testing.T) {
	n, err := NewNetwork(Config{}, XY{}, []Flow{{Src: 0, Dst: 9, Rate: 0.5}}, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(200)
	res := n.Measure(0)
	for i, u := range res.RouterUtil {
		//parm:floateq
		if u != 0 {
			t.Errorf("router %d util %g in a zero-cycle window, want 0", i, u)
		}
	}
}

// TestConfigDefaults pins the withDefaults values the documentation
// promises, so doc comments and code cannot drift apart again (the RateEWMA
// comment once claimed 0.02 while the code selected 0.05).
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Width != 10 || c.Height != 6 {
		t.Errorf("default mesh = %dx%d, want 10x6", c.Width, c.Height)
	}
	if c.BufferFlits != 8 {
		t.Errorf("BufferFlits = %d, want 8", c.BufferFlits)
	}
	if c.FlitsPerPacket != 5 {
		t.Errorf("FlitsPerPacket = %d, want 5", c.FlitsPerPacket)
	}
	if c.StagedPackets != 4 {
		t.Errorf("StagedPackets = %d, want 4", c.StagedPackets)
	}
	if c.OccupancyThreshold != 0.5 {
		t.Errorf("OccupancyThreshold = %g, want 0.5", c.OccupancyThreshold)
	}
	if c.RateEWMA != 0.05 {
		t.Errorf("RateEWMA = %g, want 0.05", c.RateEWMA)
	}
	if c.SatLinkLoad != 0.6 {
		t.Errorf("SatLinkLoad = %g, want 0.6", c.SatLinkLoad)
	}
}

// Each mesh dimension defaults independently: setting only Width must not
// zero out Height (a Config{Width: 8} once built a degenerate 0-tile mesh).
func TestMeshDimensionDefaults(t *testing.T) {
	c := Config{Width: 8}.withDefaults()
	if c.Width != 8 || c.Height != 6 {
		t.Errorf("Config{Width:8} = %dx%d, want 8x6", c.Width, c.Height)
	}
	c = Config{Height: 4}.withDefaults()
	if c.Width != 10 || c.Height != 4 {
		t.Errorf("Config{Height:4} = %dx%d, want 10x4", c.Width, c.Height)
	}
	n, err := NewNetwork(Config{Width: 8}, XY{}, []Flow{{Src: 0, Dst: 47, Rate: 0.1}}, &Env{})
	if err != nil {
		t.Fatalf("Config{Width:8}: %v", err)
	}
	if got := len(n.routers); got != 48 {
		t.Errorf("router count = %d, want 48", got)
	}
	if _, err := NewNetwork(Config{Width: -3, Height: 4}, XY{}, nil, &Env{}); err == nil {
		t.Error("negative width accepted")
	}
	if _, err := NewNetwork(Config{Width: 4, Height: -1}, XY{}, nil, &Env{}); err == nil {
		t.Error("negative height accepted")
	}
}

// A single packet over XY arrives with the zero-load latency: hops for the
// head plus serialization of the remaining flits, plus injection/ejection.
func TestZeroLoadLatency(t *testing.T) {
	flows := []Flow{{Src: 0, Dst: 9, Rate: 0.002}} // sparse packets
	n, err := NewNetwork(Config{}, XY{}, flows, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	res := n.Measure(5000)
	fs := res.Flows[0]
	if fs.DeliveredPackets == 0 {
		t.Fatal("nothing delivered")
	}
	lat := fs.AvgPacketLatency()
	// 9 hops + 5 flits serialization + ~2 injection/ejection overhead.
	if lat < 13 || lat > 25 {
		t.Errorf("zero-load latency = %g cycles, want ~14-20", lat)
	}
}

// Flit conservation: everything injected is eventually delivered once the
// sources go quiet.
func TestFlitConservation(t *testing.T) {
	flows := []Flow{
		{Src: 0, Dst: 59, Rate: 0.2},
		{Src: 59, Dst: 0, Rate: 0.2},
		{Src: 12, Dst: 47, Rate: 0.3},
	}
	n, err := NewNetwork(Config{}, XY{}, flows, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(4000)
	// Stop injection and drain.
	for i := range n.flows {
		n.flows[i].Rate = 0
	}
	n.Run(2000)
	for i, fs := range n.stats {
		if fs.DeliveredFlits != fs.InjectedFlits {
			t.Errorf("flow %d: injected %d, delivered %d", i, fs.InjectedFlits, fs.DeliveredFlits)
		}
		if fs.DeliveredFlits%n.cfg.FlitsPerPacket != 0 {
			t.Errorf("flow %d: partial packet delivered", i)
		}
	}
}

// Input buffers never exceed their configured capacity.
func TestBufferBound(t *testing.T) {
	flows := []Flow{
		{Src: 0, Dst: 59, Rate: 0.9},
		{Src: 10, Dst: 59, Rate: 0.9},
		{Src: 20, Dst: 59, Rate: 0.9},
		{Src: 50, Dst: 9, Rate: 0.9},
	}
	cfg := Config{BufferFlits: 4}
	n, err := NewNetwork(cfg, XY{}, flows, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3000; c++ {
		n.Step()
		for r := range n.routers {
			for p := range n.routers[r].inputs {
				if got := n.routers[r].inputs[p].len(); got > 4 {
					t.Fatalf("cycle %d: router %d port %d holds %d flits (cap 4)", c, r, p, got)
				}
			}
		}
	}
}

// Wormhole integrity: packets of one flow eject in order and contiguously
// (monotone packet sequence at the destination).
func TestPacketOrdering(t *testing.T) {
	flows := []Flow{{Src: 3, Dst: 56, Rate: 0.4}}
	n, err := NewNetwork(Config{}, XY{}, flows, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(3000)
	fs := n.stats[0]
	// Every delivered packet had its start recorded and removed exactly
	// once; out-of-order or duplicated ejection would corrupt latency
	// accounting into negatives.
	if fs.DeliveredPackets <= 0 || fs.TotalPacketLatency <= 0 {
		t.Fatalf("stats corrupt: %+v", fs)
	}
	if avg := fs.AvgPacketLatency(); avg < 10 {
		t.Errorf("impossibly low latency %g", avg)
	}
}

// Deterministic: identical runs produce identical statistics.
func TestNetworkDeterministic(t *testing.T) {
	mk := func() *Result {
		flows := []Flow{
			{Src: 0, Dst: 59, Rate: 0.5},
			{Src: 9, Dst: 50, Rate: 0.5},
			{Src: 30, Dst: 35, Rate: 0.7},
		}
		env := &Env{PSN: make([]float64, 60)}
		n, err := NewNetwork(Config{}, PANR{}, flows, env)
		if err != nil {
			t.Fatal(err)
		}
		return n.Measure(4000)
	}
	r1, r2 := mk(), mk()
	for i := range r1.Flows {
		if r1.Flows[i] != r2.Flows[i] {
			t.Fatalf("flow %d stats differ between identical runs", i)
		}
	}
	for i := range r1.RouterForwarded {
		if r1.RouterForwarded[i] != r2.RouterForwarded[i] {
			t.Fatalf("router %d activity differs between identical runs", i)
		}
	}
}

// All four algorithms make progress under sustained heavy load (deadlock
// freedom smoke test): delivered flits keep growing.
func TestNoDeadlockUnderLoad(t *testing.T) {
	var flows []Flow
	for i := 0; i < 30; i++ {
		flows = append(flows, Flow{
			Src:  geom.TileID((i * 17) % 60),
			Dst:  geom.TileID((i*23 + 31) % 60),
			Rate: 0.6,
		})
	}
	for i := range flows {
		if flows[i].Src == flows[i].Dst {
			flows[i].Dst = (flows[i].Dst + 1) % 60
		}
	}
	env := &Env{PSN: make([]float64, 60)}
	for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
		n, err := NewNetwork(Config{BufferFlits: 4}, alg, flows, env)
		if err != nil {
			t.Fatal(err)
		}
		n.Run(2000)
		first := n.Measure(2000)
		second := n.Measure(2000)
		d1, d2 := 0, 0
		for i := range first.Flows {
			d1 += first.Flows[i].DeliveredFlits
			d2 += second.Flows[i].DeliveredFlits
		}
		if d1 == 0 || d2 == 0 {
			t.Errorf("%s: network wedged under load (%d, %d delivered)", alg.Name(), d1, d2)
		}
	}
}

// Local (src == dst) flows bypass the network entirely.
func TestLocalFlowBypassesNoC(t *testing.T) {
	flows := []Flow{{Src: 7, Dst: 7, Rate: 0.9}}
	n, err := NewNetwork(Config{}, XY{}, flows, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	res := n.Measure(1000)
	if res.Flows[0].InjectedFlits != 0 || res.Flows[0].DeliveredFlits != 0 {
		t.Errorf("local flow touched the network: %+v", res.Flows[0])
	}
}

// Backpressure: with more demand than ejection bandwidth, stalls are
// recorded and throughput saturates near 1 flit/cycle at the sink.
func TestSaturationAtHotspot(t *testing.T) {
	flows := []Flow{
		{Src: 24, Dst: 25, Rate: 0.8},
		{Src: 26, Dst: 25, Rate: 0.8},
		{Src: 35, Dst: 25, Rate: 0.8},
	}
	n, err := NewNetwork(Config{}, XY{}, flows, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(1000)
	res := n.Measure(6000)
	total := 0
	stalls := 0
	for _, fs := range res.Flows {
		total += fs.DeliveredFlits
		stalls += fs.StalledCycles
	}
	thr := float64(total) / float64(res.Cycles)
	if thr > 1.05 {
		t.Errorf("sink throughput %g exceeds ejection bandwidth", thr)
	}
	if thr < 0.8 {
		t.Errorf("sink throughput %g far below saturation", thr)
	}
	if stalls == 0 {
		t.Error("oversubscribed sources recorded no stalls")
	}
}

// Router utilization is normalized per port and bounded by 1.
func TestRouterUtilBounds(t *testing.T) {
	flows := []Flow{{Src: 0, Dst: 59, Rate: 0.9}, {Src: 9, Dst: 50, Rate: 0.9}}
	n, err := NewNetwork(Config{}, XY{}, flows, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	res := n.Measure(3000)
	for i, u := range res.RouterUtil {
		if u < 0 || u > 1 {
			t.Errorf("router %d util %g out of [0,1]", i, u)
		}
	}
	if res.RouterUtil[0] == 0 {
		t.Error("source router shows no activity")
	}
}

func TestFlowStatsHelpers(t *testing.T) {
	fs := FlowStats{DeliveredFlits: 100, DeliveredPackets: 20, TotalPacketLatency: 400}
	if fs.AvgPacketLatency() != 20 {
		t.Errorf("AvgPacketLatency = %g", fs.AvgPacketLatency())
	}
	if fs.Throughput(1000) != 0.1 {
		t.Errorf("Throughput = %g", fs.Throughput(1000))
	}
	var empty FlowStats
	if empty.AvgPacketLatency() != 0 || empty.Throughput(0) != 0 {
		t.Error("empty stats not zero")
	}
}

// Incoming-rate EWMA responds to traffic and decays when it stops.
func TestIncomingRateEWMA(t *testing.T) {
	flows := []Flow{{Src: 0, Dst: 9, Rate: 0.8}}
	n, err := NewNetwork(Config{}, XY{}, flows, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(2000)
	mid := n.IncomingRate(5)
	if mid <= 0 {
		t.Fatal("no measured rate on the path")
	}
	n.flows[0].Rate = 0
	n.Run(2000)
	if after := n.IncomingRate(5); after > mid/4 {
		t.Errorf("rate EWMA did not decay: %g -> %g", mid, after)
	}
}
