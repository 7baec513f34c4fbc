package appmodel

import (
	"sync"
	"testing"

	"parm/internal/power"
)

// WCETEstimate is served from a package-level sync.Map shared by every
// engine goroutine (the expr worker pool runs simulations concurrently).
// Hammering the same key grid from many goroutines must race-cleanly return
// the same values the serial path computes. Half the goroutines use a
// parameter set that only differs from the node's table entry in FMax, so
// uncached calls for the same Node run alongside the cached ones.
func TestWCETEstimateConcurrent(t *testing.T) {
	p := power.MustParams(power.Node7)
	fast := p
	fast.FMax *= 3
	params := []power.NodeParams{p, fast}
	benches := Benchmarks()[:4]
	vdds := p.VddLevels()
	dops := DoPValues()
	type wcetKey struct {
		bench  string
		params int
		vdd    power.Volts
		dop    int
	}

	// Serial reference, also warming part of the cache so concurrent
	// callers mix loads against stores.
	want := make(map[wcetKey]float64)
	for _, b := range benches[:2] {
		for _, v := range vdds {
			for _, d := range dops {
				want[wcetKey{bench: b.Name, vdd: v, dop: d}] = b.WCETEstimate(p, v, d)
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			p := params[pi]
			for _, b := range benches {
				for _, v := range vdds {
					for _, d := range dops {
						got := b.WCETEstimate(p, v, d)
						key := wcetKey{bench: b.Name, params: pi, vdd: v, dop: d}
						if ref, ok := want[key]; ok && got != ref {
							t.Errorf("%s vdd=%g dop=%d: concurrent %g != serial %g",
								b.Name, v, d, got, ref)
							return
						}
					}
				}
			}
		}(g % 2)
	}
	wg.Wait()

	// Values computed under contention must now be stable, and the two
	// parameter sets must not share them.
	for _, b := range benches {
		for _, v := range vdds {
			for _, d := range dops {
				if first, second := b.WCETEstimate(p, v, d), b.WCETEstimate(p, v, d); first != second {
					t.Fatalf("%s vdd=%g dop=%d unstable: %g then %g", b.Name, v, d, first, second)
				}
				if b.WCETEstimate(fast, v, d) >= b.WCETEstimate(p, v, d) {
					t.Fatalf("%s vdd=%g dop=%d: tripled FMax does not shorten the WCET", b.Name, v, d)
				}
			}
		}
	}
}
