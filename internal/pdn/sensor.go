package pdn

import "fmt"

// Sensor models the on-die digital voltage-noise sensor network of the paper
// (§3.3, [16]): it quantizes instantaneous PSN readings to a fixed number of
// bits and exposes the most recent sample per tile. The routing and mapping
// logic read quantized values, never the analog waveform, mirroring what
// real hardware provides.
type Sensor struct {
	bits      uint
	fullScale float64
	levels    float64
	readings  []float64
}

// NewSensor returns a sensor bank covering numTiles tiles, quantizing PSN
// fractions in [0, fullScale] to the given number of bits. The paper's VE
// threshold is 5%, so a fullScale of ~0.2 with 6 bits gives sub-0.5%
// resolution. It panics on non-positive sizing, which is static
// misconfiguration.
func NewSensor(numTiles int, bits uint, fullScale float64) *Sensor {
	if numTiles <= 0 || bits == 0 || bits > 16 || fullScale <= 0 {
		panic(fmt.Sprintf("pdn: invalid sensor config tiles=%d bits=%d fs=%g",
			numTiles, bits, fullScale))
	}
	return &Sensor{
		bits:      bits,
		fullScale: fullScale,
		levels:    float64(int(1)<<bits - 1),
		readings:  make([]float64, numTiles),
	}
}

// Record quantizes and stores a PSN sample (fraction of Vdd) for tile i.
// Values outside [0, fullScale] are clamped, as a saturating ADC would.
// Out-of-range tile indices are ignored, matching Read's "unpopulated
// sensor" semantics: a write to a tile without a sensor is dropped rather
// than panicking.
func (s *Sensor) Record(i int, psn float64) {
	if i < 0 || i >= len(s.readings) {
		return
	}
	if psn < 0 {
		psn = 0
	}
	if psn > s.fullScale {
		psn = s.fullScale
	}
	code := float64(int(float64(psn/s.fullScale*s.levels) + 0.5))
	s.readings[i] = code / s.levels * s.fullScale
}

// Read returns the last quantized PSN sample of tile i, or 0 when the tile
// index is out of range (an unpopulated sensor reads as quiet).
func (s *Sensor) Read(i int) float64 {
	if i < 0 || i >= len(s.readings) {
		return 0
	}
	return s.readings[i]
}
