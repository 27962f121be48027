package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestEWMAFirstObservationInitializes(t *testing.T) {
	e := NewEWMA(0.3)
	if e.Started() {
		t.Fatal("fresh EWMA reports started")
	}
	got := e.Observe(10)
	if got != 10 {
		t.Fatalf("first observation = %v, want 10", got)
	}
	if !e.Started() {
		t.Fatal("EWMA not started after observation")
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(10)
	got := e.Observe(20) // 0.5*20 + 0.5*10
	if !almostEqual(got, 15, 1e-12) {
		t.Fatalf("second observation = %v, want 15", got)
	}
	got = e.Observe(15) // 0.5*15 + 0.5*15
	if !almostEqual(got, 15, 1e-12) {
		t.Fatalf("third observation = %v, want 15", got)
	}
}

func TestEWMAAlphaClamping(t *testing.T) {
	// A non-positive alpha becomes a tiny positive one: the average moves,
	// barely.
	e := NewEWMA(-1)
	e.Observe(0)
	if got := e.Observe(1); got <= 0 || got > 1e-6 {
		t.Fatalf("negative alpha not clamped: average %v after 0, 1", got)
	}
	// An alpha above 1 becomes 1: the average tracks the input.
	e = NewEWMA(2)
	e.Observe(0)
	if got := e.Observe(5); got != 5 {
		t.Fatalf("alpha > 1 not clamped: average %v after 0, 5", got)
	}
}

func TestEWMAAlphaOneTracksInput(t *testing.T) {
	e := NewEWMA(1)
	for _, x := range []float64{3, 9, -4, 0.5} {
		if got := e.Observe(x); got != x {
			t.Fatalf("alpha=1 EWMA = %v, want %v", got, x)
		}
	}
}

// Property: EWMA value always lies within [min, max] of observations seen.
func TestEWMABoundedByObservations(t *testing.T) {
	f := func(alpha float64, xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		a := math.Abs(math.Mod(alpha, 1))
		if a == 0 {
			a = 0.5
		}
		e := NewEWMA(a)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true // skip degenerate inputs
			}
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			v := e.Observe(x)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearRegressionExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.A, 1, 1e-9) || !almostEqual(fit.B, 2, 1e-9) {
		t.Fatalf("fit = %+v, want A=1 B=2", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Fatal("want error for single point")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("want error for constant x")
	}
}

func TestLinearRegressionNoisyR2(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := []float64{0.1, 0.9, 2.2, 2.8, 4.1, 4.9} // roughly y = x
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.98 {
		t.Fatalf("R2 = %v, want near 1 for near-linear data", fit.R2)
	}
	if !almostEqual(fit.B, 1, 0.1) {
		t.Fatalf("slope = %v, want ~1", fit.B)
	}
}

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-9) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Stddev(xs); !almostEqual(got, 2, 1e-9) {
		t.Fatalf("Stddev = %v, want 2", got)
	}
	if Mean(nil) != 0 || Stddev(nil) != 0 || Stddev([]float64{1}) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
}
