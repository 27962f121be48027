// Package stats provides small statistical helpers used across the
// SyslogDigest pipeline: exponentially weighted moving averages, means and
// deviations, and simple linear regression. All functions are pure and
// allocation-conscious; none of them depend on the rest of the repository.
package stats

import (
	"fmt"
	"math"
)

// EWMA is an exponentially weighted moving average with smoothing factor
// Alpha in (0, 1]. A higher Alpha discounts older observations faster.
// The zero value is not usable; construct with NewEWMA.
type EWMA struct {
	alpha   float64
	value   float64
	started bool
}

// NewEWMA returns an EWMA with the given smoothing factor. Alpha is clamped
// to the half-open interval (0, 1]; a non-positive alpha is replaced by a
// tiny epsilon so that the average still moves.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 {
		alpha = 1e-9
	}
	if alpha > 1 {
		alpha = 1
	}
	return &EWMA{alpha: alpha}
}

// Started reports whether at least one observation has been recorded.
func (e *EWMA) Started() bool { return e.started }

// Value returns the current smoothed value. It returns 0 before the first
// observation.
func (e *EWMA) Value() float64 { return e.value }

// Observe folds a new observation into the average and returns the updated
// value. The first observation initializes the average to the observation
// itself, mirroring the common EWMA bootstrap.
func (e *EWMA) Observe(x float64) float64 {
	if !e.started {
		e.value = x
		e.started = true
		return e.value
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// SetState overwrites the average's accumulated state, keeping the
// smoothing factor. It exists for checkpoint restore: a restored EWMA must
// continue the exact numeric sequence the snapshotted one would have
// produced, so the raw (value, started) pair round-trips as-is.
func (e *EWMA) SetState(value float64, started bool) {
	e.value = value
	e.started = started
}

// LinearFit holds the result of an ordinary least squares fit y = A + B*x.
type LinearFit struct {
	A  float64 // intercept
	B  float64 // slope
	R2 float64 // coefficient of determination; 1 means perfect fit
	N  int     // number of points fitted
}

// LinearRegression fits y = A + B*x by ordinary least squares. It returns an
// error when fewer than two points are supplied or when all x values are
// identical (the slope would be undefined).
func LinearRegression(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return LinearFit{}, fmt.Errorf("stats: need at least 2 points, got %d", n)
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: all x values identical")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		// Residual sum of squares relative to total sum of squares.
		ss := syy - b*sxy
		r2 = 1 - ss/syy
		if r2 < 0 {
			r2 = 0
		}
	}
	return LinearFit{A: a, B: b, R2: r2, N: n}, nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation of xs, or 0 when fewer
// than two values are supplied.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
