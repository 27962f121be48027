// Package temporal implements the paper's temporal pattern learning
// (§4.1.3) and online temporal grouping (§4.2.1).
//
// Messages of one template on one router often arrive in clusters — a
// flapping controller fires every few seconds while unstable; a timer-driven
// message fires every few minutes for hours. The model predicts the next
// interarrival time with an exponentially weighted moving average,
//
//	Ŝt = α·St−1 + (1−α)·Ŝt−1,
//
// and keeps a message in the current group while the real interarrival is
// not much larger than predicted, St ≤ β·Ŝt, bounded below by Smin (join
// anything closer than the syslog clock granularity) and above by Smax
// (never bridge more than a few hours).
//
// The offline side calibrates α and β by sweeping them over historical
// per-(template, router) arrival streams and picking the setting that
// minimizes the compression ratio (#groups / #messages), which is exactly
// the procedure behind the paper's Figures 10 and 11.
package temporal

import (
	"fmt"
	"time"

	"syslogdigest/internal/par"
	"syslogdigest/internal/stats"
)

// Params are the temporal grouping parameters.
type Params struct {
	Alpha float64       // EWMA weight for the newest interarrival
	Beta  float64       // tolerance multiplier on the prediction
	Smin  time.Duration // interarrivals at or below this always group
	Smax  time.Duration // interarrivals at or above this never group
}

// DefaultParams returns the paper's Table 6 setting for dataset A
// (α=0.05, β=5) with Smin=1s and Smax=3h.
func DefaultParams() Params {
	return Params{Alpha: 0.05, Beta: 5, Smin: time.Second, Smax: 3 * time.Hour}
}

// normalize fills unset fields with defaults and validates ranges.
func (p Params) normalize() (Params, error) {
	if p.Alpha < 0 || p.Alpha > 1 {
		return p, fmt.Errorf("temporal: alpha %v out of [0,1]", p.Alpha)
	}
	if p.Beta == 0 {
		p.Beta = 5
	}
	if p.Beta < 1 {
		return p, fmt.Errorf("temporal: beta %v must be >= 1", p.Beta)
	}
	if p.Smin == 0 {
		p.Smin = time.Second
	}
	if p.Smax == 0 {
		p.Smax = 3 * time.Hour
	}
	if p.Smax <= p.Smin {
		return p, fmt.Errorf("temporal: Smax %v must exceed Smin %v", p.Smax, p.Smin)
	}
	return p, nil
}

// Grouper ingests the arrival times of one (template, router) stream in
// order and reports group boundaries. The zero value is not usable;
// construct with NewGrouper.
type Grouper struct {
	p       Params
	ewma    *stats.EWMA
	last    time.Time
	started bool
}

// NewGrouper builds a grouper; invalid params return an error.
func NewGrouper(p Params) (*Grouper, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	return &Grouper{p: p, ewma: stats.NewEWMA(p.Alpha)}, nil
}

// Observe ingests the next arrival and reports whether it belongs to the
// same group as the previous one. The first arrival always starts a new
// group (returns false). Out-of-order arrivals are treated as zero
// interarrival and therefore always group.
//
// Every interarrival — clamped to Smax — trains the predictor, including
// group-breaking ones: the model tracks the template's typical spacing, and
// folding breaks in (dampened by α) lets it recover when a pattern's period
// genuinely changes.
func (g *Grouper) Observe(t time.Time) bool {
	if !g.started {
		g.started = true
		g.last = t
		return false
	}
	st := t.Sub(g.last)
	if st < 0 {
		st = 0
	}
	g.last = t

	same := false
	switch {
	case st <= g.p.Smin:
		same = true
	case st >= g.p.Smax:
		same = false
	case g.ewma.Started():
		same = float64(st) <= g.p.Beta*g.ewma.Value()
	default:
		// No prediction yet: only Smin-close arrivals group. One stray
		// boundary on the first interarrival of a stream is the price of
		// not bridging unrelated messages.
		same = false
	}

	train := st
	if train > g.p.Smax {
		train = g.p.Smax
	}
	g.ewma.Observe(float64(train))
	return same
}

// GrouperState is the serializable state of a Grouper: everything Observe
// mutates, with the last-arrival time flattened to Unix nanoseconds (0 =
// never observed). The parameters are deliberately not part of the state —
// they are configuration, supplied again at restore — so a checkpoint
// cannot silently override the knowledge base it is restored into.
type GrouperState struct {
	EwmaValue   float64 `json:"ewma_value"`
	EwmaStarted bool    `json:"ewma_started"`
	LastNs      int64   `json:"last_ns"`
	Started     bool    `json:"started"`
}

// State snapshots the grouper's mutable state for checkpointing.
func (g *Grouper) State() GrouperState {
	st := GrouperState{
		EwmaValue:   g.ewma.Value(),
		EwmaStarted: g.ewma.Started(),
		Started:     g.started,
	}
	if !g.last.IsZero() {
		st.LastNs = g.last.UnixNano()
	}
	return st
}

// RestoreGrouper rebuilds a grouper from parameters and a snapshotted
// state; a restored grouper's Observe sequence continues bit-identically.
func RestoreGrouper(p Params, st GrouperState) (*Grouper, error) {
	g, err := NewGrouper(p)
	if err != nil {
		return nil, err
	}
	g.ewma.SetState(st.EwmaValue, st.EwmaStarted)
	if st.LastNs != 0 {
		g.last = time.Unix(0, st.LastNs).UTC()
	}
	g.started = st.Started
	return g, nil
}

// GroupStream assigns a group id (0-based, nondecreasing) to each arrival
// time in ts, which must be sorted ascending.
func GroupStream(ts []time.Time, p Params) ([]int, error) {
	g, err := NewGrouper(p)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(ts))
	id := -1
	for i, t := range ts {
		if !g.Observe(t) {
			id++
		}
		out[i] = id
	}
	return out, nil
}

// CompressionRatio runs temporal grouping over a set of independent arrival
// streams and returns (total groups) / (total arrivals) — the paper's
// compression ratio for the temporal stage. Empty input returns 1.
func CompressionRatio(streams [][]time.Time, p Params) (float64, error) {
	r, err := newInterarrivals(streams).ratios(p, p.Alpha, []float64{p.Beta})
	if err != nil {
		return 0, err
	}
	return r[0], nil
}

// SweepPoint is one (parameter, ratio) sample from a calibration sweep.
type SweepPoint struct {
	Alpha, Beta float64
	Ratio       float64
}

// SweepAlpha computes the compression ratio for each alpha at fixed beta,
// reproducing the x-axis of the paper's Figure 10.
func SweepAlpha(streams [][]time.Time, alphas []float64, beta float64, base Params) ([]SweepPoint, error) {
	ia := newInterarrivals(streams)
	out := make([]SweepPoint, 0, len(alphas))
	for _, a := range alphas {
		r, err := ia.ratios(base, a, []float64{beta})
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{Alpha: a, Beta: beta, Ratio: r[0]})
	}
	return out, nil
}

// SweepBeta computes the compression ratio for each beta at fixed alpha,
// reproducing the x-axis of the paper's Figure 11.
func SweepBeta(streams [][]time.Time, betas []float64, alpha float64, base Params) ([]SweepPoint, error) {
	rs, err := newInterarrivals(streams).ratios(base, alpha, betas)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, len(betas))
	for i, b := range betas {
		out = append(out, SweepPoint{Alpha: alpha, Beta: b, Ratio: rs[i]})
	}
	return out, nil
}

// Calibrate picks the (alpha, beta) pair minimizing the compression ratio
// over the given grids, the offline procedure of §5.2.3. Ties keep the
// earlier grid point, alphas outer and betas inner, so list the preferred
// settings first. Each alpha is one par task that walks the streams once
// and scores every beta, and the winner is then selected serially in grid
// order — identical to the serial sweep at any worker count.
func Calibrate(streams [][]time.Time, alphas, betas []float64, base Params) (Params, error) {
	if len(alphas) == 0 || len(betas) == 0 {
		return Params{}, fmt.Errorf("temporal: empty calibration grid")
	}
	ia := newInterarrivals(streams)
	ratios, err := par.Map(len(alphas), func(i int) ([]float64, error) {
		return ia.ratios(base, alphas[i], betas)
	})
	if err != nil {
		return Params{}, err
	}
	best := base
	bestRatio := 2.0
	found := false
	for i, a := range alphas {
		for j, b := range betas {
			if r := ratios[i][j]; !found || r < bestRatio {
				found = true
				bestRatio = r
				best.Alpha, best.Beta = a, b
			}
		}
	}
	return best, nil
}

// interarrivals is a set of arrival streams reduced to what scoring reads:
// every stream's gaps, clamped at zero as Grouper.Observe clamps them,
// stored back to back. It is built once per sweep and only read after.
type interarrivals struct {
	gaps    []time.Duration
	ends    []int // one past each non-empty stream's last gap in gaps
	streams int   // streams given, empty ones included
	msgs    int   // arrivals over all streams
}

func newInterarrivals(streams [][]time.Time) *interarrivals {
	ia := &interarrivals{streams: len(streams)}
	for _, ts := range streams {
		ia.msgs += len(ts)
	}
	ia.gaps = make([]time.Duration, 0, ia.msgs)
	for _, ts := range streams {
		if len(ts) == 0 {
			continue
		}
		for i := 1; i < len(ts); i++ {
			ia.gaps = append(ia.gaps, max(ts[i].Sub(ts[i-1]), 0))
		}
		ia.ends = append(ia.ends, len(ia.gaps))
	}
	return ia
}

// ratios returns the compression ratio at (alpha, beta) for every beta,
// each bit-identical to a GroupStream replay per stream. One EWMA walk
// serves every beta: the predictor trains on every gap whatever the
// grouping decision, so only the comparison depends on beta. As in
// CompressionRatio, a point's parameters are validated only when there is
// at least one stream, and the first invalid beta's error is returned.
func (ia *interarrivals) ratios(base Params, alpha float64, betas []float64) ([]float64, error) {
	p := base
	bs := make([]float64, len(betas))
	for i, b := range betas {
		pt := base
		pt.Alpha, pt.Beta = alpha, b
		pt, err := pt.normalize()
		if err != nil && ia.streams > 0 {
			return nil, err
		}
		p, bs[i] = pt, pt.Beta
	}
	out := make([]float64, len(betas))
	if ia.msgs == 0 {
		for i := range out {
			out[i] = 1
		}
		return out, nil
	}

	// all counts the groups every beta opens: each stream's first arrival,
	// and every gap at or past Smax or before the predictor has started.
	all := len(ia.ends)
	breaks := make([]int, len(bs))
	ewma := stats.NewEWMA(p.Alpha)
	lo := 0
	for _, hi := range ia.ends {
		ewma.SetState(0, false)
		for _, st := range ia.gaps[lo:hi] {
			switch {
			case st <= p.Smin:
			case st >= p.Smax || !ewma.Started():
				all++
			default:
				v := ewma.Value()
				for i, b := range bs {
					if !(float64(st) <= b*v) {
						breaks[i]++
					}
				}
			}
			ewma.Observe(float64(min(st, p.Smax)))
		}
		lo = hi
	}
	for i := range out {
		out[i] = float64(all+breaks[i]) / float64(ia.msgs)
	}
	return out, nil
}

// Periodicity describes a detected periodic arrival pattern.
type Periodicity struct {
	Period time.Duration
	R2     float64 // goodness of the linear fit of time vs index
}

// DetectPeriodic tests whether a stream of arrival times is periodic by
// fitting arrival time against occurrence index (the paper mentions
// "predictions based on their linear regression"). A high R² and a positive
// period mean the stream fires on a timer, like Figure 5's TCP bad
// authentication example. Requires at least 4 arrivals.
func DetectPeriodic(ts []time.Time, minR2 float64) (Periodicity, bool) {
	if len(ts) < 4 {
		return Periodicity{}, false
	}
	xs := make([]float64, len(ts))
	ys := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = float64(i)
		ys[i] = t.Sub(ts[0]).Seconds()
	}
	fit, err := stats.LinearRegression(xs, ys)
	if err != nil || fit.B <= 0 {
		return Periodicity{}, false
	}
	if fit.R2 < minR2 {
		return Periodicity{}, false
	}
	return Periodicity{Period: time.Duration(fit.B * float64(time.Second)), R2: fit.R2}, true
}
