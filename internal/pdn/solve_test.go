package pdn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// solveEmbedded solves the n×n system a·x = b (n ≤ dcUnknowns) with
// solveLinear, padded to dcUnknowns unknowns by a diagonal block at a's own
// largest magnitude (1 for a zero matrix), so the relative pivot test judges
// the small system at its own scale. The block is decoupled: its rows hold
// zeros in a's columns, so no pivot search picks them, and a's rows hold
// zeros in its columns.
func solveEmbedded(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	scale := 0.0
	for _, row := range a {
		for _, v := range row {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	if scale == 0 {
		scale = 1
	}
	var am [dcUnknowns][dcUnknowns]float64
	var bm [dcUnknowns]float64
	for i := 0; i < dcUnknowns; i++ {
		if i < n {
			copy(am[i][:], a[i])
			bm[i] = b[i]
		} else {
			am[i][i] = scale
		}
	}
	x, err := solveLinear(&am, &bm)
	if err != nil {
		return nil, err
	}
	return x[:n], nil
}

func TestSolveLinearKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveEmbedded(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestSolveLinearIdentity(t *testing.T) {
	a := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	b := []float64{4, -2, 7}
	x, err := solveEmbedded(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{4, -2, 7} {
		if math.Abs(x[i]-want) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want)
		}
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the diagonal requires partial pivoting.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := solveEmbedded(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("solution = %v, want [3 2]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := solveEmbedded(a, b); err == nil {
		t.Error("singular system solved without error")
	}
}

// A badly scaled but well-conditioned system (entries around 1e-20, the
// magnitudes produced by pico-Farad decaps and nano-Henry bumps) must solve;
// an absolute pivot threshold would reject it as singular.
func TestSolveLinearTinyMagnitude(t *testing.T) {
	const s = 1e-20
	a := [][]float64{{2 * s, 1 * s}, {1 * s, 3 * s}}
	b := []float64{5 * s, 10 * s}
	x, err := solveEmbedded(a, b)
	if err != nil {
		t.Fatalf("tiny well-conditioned system rejected: %v", err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

// The relative test also catches rank deficiency at huge magnitudes, where
// elimination round-off dwarfs any absolute threshold.
func TestSolveLinearSingularLargeScale(t *testing.T) {
	a := [][]float64{{1e20, 2e20}, {2e20, 4e20}}
	b := []float64{1e20, 2e20}
	if _, err := solveEmbedded(a, b); err == nil {
		t.Error("rank-deficient large-scale system solved without error")
	}
}

func TestSolveLinearZeroMatrix(t *testing.T) {
	a := [][]float64{{0, 0}, {0, 0}}
	b := []float64{1, 2}
	if _, err := solveEmbedded(a, b); err == nil {
		t.Error("zero matrix solved without error")
	}
}

// Property: for random diagonally dominant systems of 2 to dcUnknowns
// unknowns, the residual a*x - b is tiny. Such systems always have a unique
// solution.
func TestSolveLinearResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(dcUnknowns-1)
		a := make([][]float64, n)
		orig := make([][]float64, n)
		b := make([]float64, n)
		borig := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = make([]float64, n)
			orig[i] = make([]float64, n)
			sum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					a[i][j] = rng.Float64()*2 - 1
					sum += math.Abs(a[i][j])
				}
			}
			a[i][i] = sum + 1 + rng.Float64()
			copy(orig[i], a[i])
			b[i] = rng.Float64()*10 - 5
			borig[i] = b[i]
		}
		x, err := solveEmbedded(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			r := -borig[i]
			for j := 0; j < n; j++ {
				r += orig[i][j] * x[j]
			}
			if math.Abs(r) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
