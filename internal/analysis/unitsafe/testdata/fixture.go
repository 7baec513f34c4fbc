// Package fixture exercises the unitsafe analyzer: unit-suggesting names in
// exported signatures must use named unit types, not bare float64.
package fixture

// Volts stands in for the real power.Volts unit type.
type Volts float64

// Watts stands in for power.Watts.
type Watts float64

// Frequency passes a voltage as bare float64: fires.
func Frequency(vdd float64) float64 { // want `parameter or field "vdd" carries a physical quantity`
	return float64(vdd)
}

// FrequencyTyped uses the named unit: no report.
func FrequencyTyped(vdd Volts) float64 {
	return float64(vdd)
}

// NewBudget names its parameter in watts but types it float64: fires.
func NewBudget(limitWatts float64) Watts { // want `parameter or field "limitWatts" carries a physical quantity`
	return Watts(limitWatts)
}

// Wait covers the seconds vocabulary: fires on both.
func Wait(dt float64, warmupDuration float64) { // want `parameter or field "dt"` // want `parameter or field "warmupDuration"`
}

// Levels flags unit-suggesting slices of bare float64.
func Levels(vdds []float64) int { // want `parameter or field "vdds"`
	return len(vdds)
}

// frequency is unexported: boundary rule only, no report.
func frequency(vdd float64) float64 {
	return vdd
}

// Config's exported fields are API surface: Vdd fires, Ratio carries no
// unit vocabulary, and the unexported field is not a boundary.
type Config struct {
	Vdd float64 // want `parameter or field "Vdd"`
	// Ratio is dimensionless.
	Ratio      float64
	limitWatts float64
}

// TypedConfig uses unit types throughout: no report.
type TypedConfig struct {
	Vdd              Volts
	LimitWattsBudget Watts
}

// Droop is a fraction of Vdd, not an absolute voltage; the suppression
// documents the deliberate bare float.
//
//parm:unitless
func Droop(vddFraction float64) float64 {
	return vddFraction
}
