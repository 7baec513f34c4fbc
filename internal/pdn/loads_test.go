package pdn

import (
	"math"
	"testing"
)

func TestClassString(t *testing.T) {
	if Idle.String() != "idle" || Low.String() != "low" || High.String() != "high" {
		t.Error("Class.String wrong")
	}
}

func TestActivityFactor(t *testing.T) {
	if ActivityFactor(High) != HighCoreActivity {
		t.Error("High activity factor wrong")
	}
	if ActivityFactor(Low) != LowCoreActivity {
		t.Error("Low activity factor wrong")
	}
	if ActivityFactor(Idle) != 0 {
		t.Error("Idle activity factor not zero")
	}
}

func TestBuildLoadsClassParameters(t *testing.T) {
	occ := [DomainTiles]TileOccupant{
		{IAvg: 0.2, Class: High},
		{IAvg: 0.1, Class: Low},
		{}, // idle
		{IAvg: 0.15, Class: High},
	}
	loads := BuildLoads(occ)
	if loads[0].Activity != HighModulation || loads[0].BurstHz != HighBurstHz {
		t.Errorf("High load params wrong: %+v", loads[0])
	}
	if loads[1].Activity != LowModulation || loads[1].BurstHz != LowBurstHz {
		t.Errorf("Low load params wrong: %+v", loads[1])
	}
	if loads[2].IAvg != 0 || loads[2].Activity != 0 {
		t.Errorf("idle tile got a load: %+v", loads[2])
	}
	if loads[0].IAvg != 0.2 || loads[3].IAvg != 0.15 {
		t.Error("currents not preserved")
	}
}

func TestBuildLoadsStaggering(t *testing.T) {
	occ := [DomainTiles]TileOccupant{
		{IAvg: 0.2, Class: High, Staggered: true},
		{IAvg: 0.2, Class: High, Staggered: true},
		{IAvg: 0.2, Class: High, Staggered: true},
		{IAvg: 0.2, Class: High, Staggered: true},
	}
	loads := BuildLoads(occ)
	seen := map[float64]bool{}
	for i, ld := range loads {
		if seen[ld.Phase] {
			t.Errorf("tile %d repeats phase %g", i, ld.Phase)
		}
		seen[ld.Phase] = true
	}
	// Four staggered threads get evenly spaced phases 0, pi/2, pi, 3pi/2.
	for _, want := range []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2} {
		if !seen[want] {
			t.Errorf("phase %g missing from staggered set", want)
		}
	}
}

func TestBuildLoadsNoStaggerWhenAligned(t *testing.T) {
	occ := [DomainTiles]TileOccupant{
		{IAvg: 0.2, Class: High},
		{IAvg: 0.2, Class: High},
		{IAvg: 0.2, Class: High},
		{IAvg: 0.2, Class: High},
	}
	for i, ld := range BuildLoads(occ) {
		if ld.Phase != 0 {
			t.Errorf("non-staggered tile %d has phase %g", i, ld.Phase)
		}
	}
}

func TestBuildLoadsPerClassStagger(t *testing.T) {
	// Two High + two Low, all staggered: phases spread within each class
	// independently (0 and pi each).
	occ := [DomainTiles]TileOccupant{
		{IAvg: 0.2, Class: High, Staggered: true},
		{IAvg: 0.2, Class: High, Staggered: true},
		{IAvg: 0.1, Class: Low, Staggered: true},
		{IAvg: 0.1, Class: Low, Staggered: true},
	}
	loads := BuildLoads(occ)
	if !(loads[0].Phase == 0 && math.Abs(loads[1].Phase-math.Pi) < 1e-12) {
		t.Errorf("High phases = %g, %g", loads[0].Phase, loads[1].Phase)
	}
	if !(loads[2].Phase == 0 && math.Abs(loads[3].Phase-math.Pi) < 1e-12) {
		t.Errorf("Low phases = %g, %g", loads[2].Phase, loads[3].Phase)
	}
}

func TestBuildLoadsSingleStaggeredKeepsPhaseZero(t *testing.T) {
	occ := [DomainTiles]TileOccupant{
		{IAvg: 0.2, Class: High, Staggered: true},
	}
	if ph := BuildLoads(occ)[0].Phase; ph != 0 {
		t.Errorf("lone staggered thread phase = %g, want 0", ph)
	}
}

func TestSensorQuantization(t *testing.T) {
	s := NewSensor(4, 6, 0.20)
	s.Record(0, 0.05)
	got := s.Read(0)
	if res := 0.20 / 63; math.Abs(got-0.05) > res {
		t.Errorf("quantized 0.05 to %g (resolution %g)", got, res)
	}
	// Quantization is idempotent: re-recording a read value returns it.
	s.Record(1, got)
	if s.Read(1) != got {
		t.Error("quantization not idempotent")
	}
}

func TestSensorClamping(t *testing.T) {
	s := NewSensor(2, 6, 0.20)
	s.Record(0, -0.3)
	if s.Read(0) != 0 {
		t.Errorf("negative PSN read as %g", s.Read(0))
	}
	s.Record(1, 0.9)
	if s.Read(1) != 0.20 {
		t.Errorf("overrange PSN read as %g, want full scale", s.Read(1))
	}
}

func TestSensorOutOfRangeReads(t *testing.T) {
	s := NewSensor(2, 6, 0.20)
	if s.Read(-1) != 0 || s.Read(5) != 0 {
		t.Error("out-of-range tile did not read as quiet")
	}
}

// Record must mirror Read's out-of-range semantics: a write to a tile
// without a sensor is silently dropped, never a panic, and leaves the
// populated tiles untouched. (Record once indexed unchecked while Read
// bounds-checked, so the same bad index panicked on write but read as 0.)
func TestSensorOutOfRangeRecords(t *testing.T) {
	s := NewSensor(2, 6, 0.20)
	s.Record(0, 0.10)
	before := s.Read(0)
	s.Record(-1, 0.15)
	s.Record(2, 0.15)
	s.Record(1000, 0.15)
	if got := s.Read(0); got != before {
		t.Errorf("out-of-range Record disturbed tile 0: %g -> %g", before, got)
	}
	if s.Read(2) != 0 || s.Read(-1) != 0 {
		t.Error("out-of-range tile no longer reads as quiet")
	}
}

// maxQuantError returns the largest |Read - recorded| of a sensor over a
// sweep of its full scale.
func maxQuantError(s *Sensor, fullScale float64) float64 {
	worst := 0.0
	for k := 0; k <= 1000; k++ {
		v := fullScale * float64(k) / 1000
		s.Record(0, v)
		worst = math.Max(worst, math.Abs(s.Read(0)-v))
	}
	return worst
}

// A sensor rounds to the nearest of its 2^bits-1 steps over the full scale,
// so its error is at most half a step, and more bits read closer.
func TestSensorResolutionScalesWithBits(t *testing.T) {
	coarse := maxQuantError(NewSensor(1, 4, 0.20), 0.20)
	fine := maxQuantError(NewSensor(1, 8, 0.20), 0.20)
	if fine >= coarse {
		t.Errorf("8-bit error %g not below 4-bit error %g", fine, coarse)
	}
	if half := 0.20 / 15 / 2; coarse > half*(1+1e-9) {
		t.Errorf("4-bit error %g exceeds half a step %g", coarse, half)
	}
}

func TestNewSensorPanics(t *testing.T) {
	for _, tc := range []struct {
		tiles int
		bits  uint
		fs    float64
	}{{0, 6, 0.2}, {4, 0, 0.2}, {4, 20, 0.2}, {4, 6, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSensor(%d,%d,%g) did not panic", tc.tiles, tc.bits, tc.fs)
				}
			}()
			NewSensor(tc.tiles, tc.bits, tc.fs)
		}()
	}
}
