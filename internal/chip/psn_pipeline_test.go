package chip

import (
	"testing"

	"parm/internal/obs"
	"parm/internal/pdn"
)

// populate fills every domain of the chip with a distinct app at cycling
// Vdd levels and mixed activity classes, so a sample exercises varied load
// signatures.
func populate(t testing.TB, c *Chip) {
	t.Helper()
	vdds := c.Vdds
	for d := 0; d < c.NumDomains(); d++ {
		vdd := vdds[d%len(vdds)]
		if err := c.AssignDomain(DomainID(d), d+1, vdd); err != nil {
			t.Fatal(err)
		}
		dom := c.Domain(DomainID(d))
		for slot, tile := range dom.Tiles {
			class := pdn.High
			if (d+slot)%3 == 0 {
				class = pdn.Low
			}
			if err := c.PlaceTask(tile, d+1, slot, class); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func utilRamp(c *Chip) []float64 {
	util := make([]float64, c.Mesh.NumTiles())
	for i := range util {
		util[i] = float64(i%7) / 20
	}
	return util
}

// newChip builds a default chip.
func newChip(t testing.TB) *Chip {
	t.Helper()
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sampleUncached samples c through a fresh solver, so every active domain
// is solved and none is served from a memo.
func sampleUncached(c *Chip, util []float64) (*PSNSample, error) {
	c.solver = pdn.NewSolver()
	return c.SamplePSN(util)
}

// newCounted builds a default (cached) chip instrumented in a fresh
// registry, and a reader of its pdn/cache/ counters.
func newCounted(t testing.TB) (*Chip, func(name string) uint64) {
	t.Helper()
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	c.Instrument(r)
	return c, func(name string) uint64 { return r.Counter("pdn/cache/" + name).Value() }
}

func sameSample(a, b *PSNSample) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eq(a.TilePeak, b.TilePeak) && eq(a.DomainPeak, b.DomainPeak) && eq(a.DomainAvg, b.DomainAvg)
}

// The default sampling path (solve cache on) must be bit-identical to the
// serial, uncached reference: on the first pass and on a repeat served
// wholly from the cache.
func TestSamplePSNParallelMatchesSerial(t *testing.T) {
	ref := newChip(t)
	populate(t, ref)
	util := utilRamp(ref)
	want, err := sampleUncached(ref, util)
	if err != nil {
		t.Fatal(err)
	}
	c, count := newCounted(t)
	populate(t, c)
	for rep := 0; rep < 2; rep++ { // second rep runs fully from cache
		got, err := c.SamplePSN(util)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSample(got, want) {
			t.Fatalf("rep=%d: sample differs from serial reference", rep)
		}
	}
	if hits, misses := count("hits"), count("misses"); hits == 0 || misses == 0 {
		t.Errorf("cache not exercised (hits=%d misses=%d)", hits, misses)
	}
}

// Repeated samples with an unchanged occupant set are served from the
// solve cache: the second sample adds no misses.
func TestSamplePSNCacheHitsOnRepeat(t *testing.T) {
	c, count := newCounted(t)
	populate(t, c)
	util := utilRamp(c)
	if _, err := c.SamplePSN(util); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := count("misses")
	if _, err := c.SamplePSN(util); err != nil {
		t.Fatal(err)
	}
	if misses := count("misses"); misses != missesAfterFirst {
		t.Errorf("repeat sample integrated again: misses %d -> %d", missesAfterFirst, misses)
	}
	if hits := count("hits"); hits < uint64(c.NumDomains()) {
		t.Errorf("repeat sample hit only %d times, want >= %d", hits, c.NumDomains())
	}
}

// utilBatch returns a distinct router-utilization ramp per batch index, so
// successive samples exercise different load signatures and cache keys.
func utilBatch(c *Chip, b int) []float64 {
	util := make([]float64, c.Mesh.NumTiles())
	for i := range util {
		util[i] = float64((i+3*b)%11) / 25
	}
	return util
}

// churn is one mutation epoch between sampling batches: it evicts whatever
// occupies domain 0 and reassigns it to a fresh app at a different Vdd with
// a different activity mix. Applied identically to both chips under test.
func churn(t testing.TB, c *Chip, epoch int) {
	t.Helper()
	dom := c.Domain(0)
	if occ := c.Occupant(dom.Tiles[0]); occ.App != NoApp {
		c.ReleaseApp(occ.App)
	}
	app := 1000 + epoch
	if err := c.AssignDomain(0, app, c.Vdds[epoch%len(c.Vdds)]); err != nil {
		t.Fatal(err)
	}
	for slot, tile := range dom.Tiles {
		class := pdn.High
		if (slot+epoch)%2 == 0 {
			class = pdn.Low
		}
		if err := c.PlaceTask(tile, app, slot, class); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSamplePSNChurnMatchesUncached drives sampling the way the engine does
// over a run: mutation epochs (release, reassign, re-place) alternate with
// batches of samples over varying router utilization, each batch repeated so
// later passes run from the solve cache. Every sample of the cached chip
// must be bit-identical to the uncached reference chip mutated in lockstep.
func TestSamplePSNChurnMatchesUncached(t *testing.T) {
	ref := newChip(t)
	cached, count := newCounted(t)
	populate(t, ref)
	populate(t, cached)

	const (
		batches = 5
		epochs  = 3
		reps    = 2
	)
	for epoch := 0; epoch < epochs; epoch++ {
		if epoch > 0 {
			churn(t, ref, epoch)
			churn(t, cached, epoch)
		}
		for rep := 0; rep < reps; rep++ {
			for b := 0; b < batches; b++ {
				want, err := sampleUncached(ref, utilBatch(ref, b))
				if err != nil {
					t.Fatal(err)
				}
				got, err := cached.SamplePSN(utilBatch(cached, b))
				if err != nil {
					t.Fatal(err)
				}
				if !sameSample(got, want) {
					t.Fatalf("epoch=%d rep=%d batch=%d: cached sample differs from uncached reference", epoch, rep, b)
				}
			}
		}
	}
	if hits, misses := count("hits"), count("misses"); hits == 0 || misses == 0 {
		t.Errorf("churn run did not exercise the solve cache (hits=%d misses=%d)", hits, misses)
	}
}

// BenchmarkSamplePSN measures a full-chip PSN sample: the uncached
// reference and the steady-state cached path (the hot path of every
// simulated second).
func BenchmarkSamplePSN(b *testing.B) {
	bench := func(b *testing.B, sample func(*Chip, []float64) (*PSNSample, error)) {
		c := newChip(b)
		populate(b, c)
		util := utilRamp(c)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sample(c, util); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { bench(b, sampleUncached) })
	b.Run("cached", func(b *testing.B) { bench(b, (*Chip).SamplePSN) })
}
