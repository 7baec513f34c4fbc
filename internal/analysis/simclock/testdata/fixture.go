// Fixture for the simclock analyzer: wall-clock reads and global rand draws
// fire; injected generators, constructors, and //parm:wallclock sites do
// not.
package fixture

import (
	"math/rand"
	"time"
)

var sink interface{}

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
	sink = a + int(b)
}

func injectedGeneratorIsFine(rng *rand.Rand) {
	// Drawing from an injected, seeded generator is the sanctioned pattern.
	a := rng.Intn(10)
	b := rng.Float64()
	sink = a + int(b)
}

func constructorsAreFine(seed int64) *rand.Rand {
	src := rand.NewSource(seed)
	return rand.New(src)
}

func nonClockTimeAPIIsFine(d time.Duration) time.Duration {
	// Duration arithmetic and formatting do not read the clock.
	return d * 2
}

func suppressedProgressLog() {
	// Progress reporting outside the measured path may read wall time.
	//parm:wallclock
	t := time.Now()
	sink = t
}
