// Package fixture exercises the det analyzer on wall-clock reads and
// global math/rand draws. Injected generators, constructors and a
// //parm:det-annotated read stay silent.
package fixture

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

var sink interface{}

// Metrics stands in for the engine's result record.
type Metrics struct {
	Energy float64
}

func wallClockReads(start time.Time) {
	now := time.Now()       // want `time.Now reads the wall clock`
	el := time.Since(start) // want `time.Since reads the wall clock`
	du := time.Until(start) // want `time.Until reads the wall clock`
	sink = []interface{}{now, el, du}
}

func globalRandDraws() {
	a := rand.Intn(10)                 // want `rand.Intn draws from the global source`
	b := rand.Float64()                // want `rand.Float64 draws from the global source`
	rand.Shuffle(3, func(i, j int) {}) // want `rand.Shuffle draws from the global source`
	c := randv2.IntN(4)                // want `rand.IntN draws from the global source`
	sink = a + int(b) + c
}

func annotate(m *Metrics) {
	m.Energy = rand.Float64() // want `rand.Float64 draws from the global source`
}

func injectedGeneratorIsFine(rng *rand.Rand) {
	a := rng.Intn(10)
	b := rng.Float64()
	sink = a + int(b)
}

func constructorsAreFine(seed int64) (*rand.Rand, *randv2.Rand) {
	src := rand.NewSource(seed)
	return rand.New(src), randv2.New(randv2.NewPCG(uint64(seed), 1))
}

func nonClockTimeAPIIsFine(d time.Duration) time.Duration {
	return d * 2
}

func auditedProgressLog() {
	// Progress reporting outside the measured path may read wall time.
	//parm:det
	t := time.Now()
	sink = t
}

// Timeline and Event stand in for internal/obs: a wall-clock timestamp fed
// to Record is the case the telemetry layer guards against.
type Event struct {
	Name string
	TS   float64
}

type Timeline struct{}

func (t *Timeline) Record(ev Event) {}

func wallClockTimestamp(t *Timeline) {
	t.Record(Event{Name: "map", TS: float64(time.Now().UnixNano())}) // want `time.Now reads the wall clock`
}

func wallClockDuration(t *Timeline, start time.Time) {
	t.Record(Event{Name: "app", TS: time.Since(start).Seconds()}) // want `time.Since reads the wall clock`
}

func simClockTimestampIsFine(t *Timeline, now float64) {
	t.Record(Event{Name: "map", TS: now})
}

func auditedWallClock(t *Timeline) {
	//parm:det debug-only event, never written to a trace
	t.Record(Event{Name: "debug", TS: float64(time.Now().UnixNano())})
}
