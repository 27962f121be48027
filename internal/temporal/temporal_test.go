package temporal

import (
	"testing"
	"time"
)

var t0 = time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)

func at(secs ...float64) []time.Time {
	out := make([]time.Time, len(secs))
	for i, s := range secs {
		out[i] = t0.Add(time.Duration(s * float64(time.Second)))
	}
	return out
}

func TestParamsNormalize(t *testing.T) {
	p, err := Params{Alpha: 0.1}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.Beta != 5 || p.Smin != time.Second || p.Smax != 3*time.Hour {
		t.Fatalf("defaults not applied: %+v", p)
	}
	for _, bad := range []Params{
		{Alpha: -0.1}, {Alpha: 1.5}, {Alpha: 0.1, Beta: 0.5},
		{Alpha: 0.1, Smin: time.Hour, Smax: time.Minute},
	} {
		if _, err := bad.normalize(); err == nil {
			t.Errorf("params %+v accepted", bad)
		}
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Alpha != 0.05 || p.Beta != 5 || p.Smin != time.Second || p.Smax != 3*time.Hour {
		t.Fatalf("DefaultParams = %+v", p)
	}
}

func TestGrouperFirstArrivalStartsGroup(t *testing.T) {
	g, err := NewGrouper(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if g.Observe(t0) {
		t.Fatal("first arrival must start a new group")
	}
	if g.ewma.Started() {
		t.Fatal("no prediction should exist before the first interarrival")
	}
}

func TestGrouperSminAlwaysGroups(t *testing.T) {
	g, _ := NewGrouper(DefaultParams())
	g.Observe(t0)
	if !g.Observe(t0.Add(500 * time.Millisecond)) {
		t.Fatal("sub-Smin interarrival must group")
	}
	if !g.Observe(t0.Add(1500 * time.Millisecond)) {
		t.Fatal("exactly-Smin interarrival must group")
	}
}

func TestGrouperSmaxNeverGroups(t *testing.T) {
	p := DefaultParams()
	p.Beta = 1000 // even a huge tolerance cannot override Smax
	g, _ := NewGrouper(p)
	g.Observe(t0)
	g.Observe(t0.Add(time.Second))     // bootstrap prediction at 1s... via Smin
	g.Observe(t0.Add(2 * time.Second)) // prediction ~1s
	if g.Observe(t0.Add(4 * time.Hour)) {
		t.Fatal("beyond-Smax interarrival must not group")
	}
}

func TestGrouperPeriodicStreamGroups(t *testing.T) {
	// Timer firing every 5 minutes: after the bootstrap break, everything
	// should stay in one group (Figure 5's pattern).
	ids, err := GroupStream(at(0, 300, 600, 900, 1200, 1500), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// First two arrivals may split (no prediction yet), the rest must all
	// share the last group.
	last := ids[len(ids)-1]
	for i := 2; i < len(ids); i++ {
		if ids[i] != last {
			t.Fatalf("periodic stream split after bootstrap: %v", ids)
		}
	}
	if ids[len(ids)-1] > 1 {
		t.Fatalf("more than 2 groups for a clean periodic stream: %v", ids)
	}
}

func TestGrouperBreaksOnGap(t *testing.T) {
	// A burst, a long quiet spell, another burst: two groups (plus the
	// possible bootstrap split).
	ids, err := GroupStream(at(0, 1, 2, 3, 7200, 7201, 7202), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if ids[3] != ids[0] {
		t.Fatalf("burst split unexpectedly: %v", ids)
	}
	if ids[4] == ids[3] {
		t.Fatalf("2-hour gap did not break the group: %v", ids)
	}
	if ids[6] != ids[4] {
		t.Fatalf("second burst split: %v", ids)
	}
}

func TestGrouperOutOfOrderTreatedAsZeroGap(t *testing.T) {
	g, _ := NewGrouper(DefaultParams())
	g.Observe(t0.Add(10 * time.Second))
	if !g.Observe(t0) {
		t.Fatal("out-of-order arrival should group (zero interarrival)")
	}
}

func TestGrouperBetaTolerance(t *testing.T) {
	p := DefaultParams()
	p.Alpha = 1 // prediction = last interarrival exactly
	p.Beta = 2
	g, _ := NewGrouper(p)
	g.Observe(t0)
	g.Observe(t0.Add(10 * time.Second)) // trains Ŝ=10 (break, no prediction)
	if !g.Observe(t0.Add(25 * time.Second)) {
		t.Fatal("15s <= 2*10s should group")
	}
	// Ŝ is now 15. 2*15=30 tolerance; a 31s gap must break.
	if g.Observe(t0.Add(56 * time.Second)) {
		t.Fatal("31s > 2*15s should break")
	}
}

func TestGroupStreamEmpty(t *testing.T) {
	ids, err := GroupStream(nil, DefaultParams())
	if err != nil || len(ids) != 0 {
		t.Fatalf("GroupStream(nil) = %v, %v", ids, err)
	}
}

func TestGroupStreamInvalidParams(t *testing.T) {
	if _, err := GroupStream(at(0), Params{Alpha: -1}); err == nil {
		t.Fatal("want error for invalid params")
	}
}

func TestCompressionRatio(t *testing.T) {
	// One stream of 4 messages in one burst -> 1 group / 4 msgs = 0.25
	// (bootstrap: gaps are sub-Smin so they all group).
	streams := [][]time.Time{at(0, 0.5, 1.0, 1.5)}
	r, err := CompressionRatio(streams, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r != 0.25 {
		t.Fatalf("ratio = %v, want 0.25", r)
	}
	// Empty input: ratio defined as 1.
	r, err = CompressionRatio(nil, DefaultParams())
	if err != nil || r != 1 {
		t.Fatalf("empty ratio = %v, %v", r, err)
	}
}

func TestCompressionRatioMoreGroupingIsLower(t *testing.T) {
	// The same stream at two betas: a larger beta can only reduce (or keep)
	// the number of groups.
	stream := at(0, 2, 5, 9, 14, 20, 27, 35, 44, 54)
	for _, pair := range [][2]float64{{2, 7}, {2, 5}, {3, 6}} {
		lo, hi := pair[0], pair[1]
		pLo, pHi := DefaultParams(), DefaultParams()
		pLo.Beta, pHi.Beta = lo, hi
		rLo, err := CompressionRatio([][]time.Time{stream}, pLo)
		if err != nil {
			t.Fatal(err)
		}
		rHi, err := CompressionRatio([][]time.Time{stream}, pHi)
		if err != nil {
			t.Fatal(err)
		}
		if rHi > rLo {
			t.Fatalf("beta %v ratio %v > beta %v ratio %v", hi, rHi, lo, rLo)
		}
	}
}

func TestSweepAlphaAndBeta(t *testing.T) {
	streams := [][]time.Time{at(0, 10, 20, 30, 31, 32, 100, 110, 120)}
	pts, err := SweepAlpha(streams, []float64{0.05, 0.5}, 2, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Alpha != 0.05 || pts[1].Alpha != 0.5 {
		t.Fatalf("SweepAlpha = %+v", pts)
	}
	bpts, err := SweepBeta(streams, []float64{2, 3, 4}, 0.05, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(bpts) != 3 || bpts[2].Beta != 4 {
		t.Fatalf("SweepBeta = %+v", bpts)
	}
	// Ratios are valid probabilities.
	for _, p := range append(pts, bpts...) {
		if p.Ratio <= 0 || p.Ratio > 1 {
			t.Fatalf("ratio out of range: %+v", p)
		}
	}
}

func TestCalibratePicksMinimum(t *testing.T) {
	// Stream with quasi-periodic spacing and occasional noise: calibration
	// must return settings whose ratio equals the grid minimum.
	streams := [][]time.Time{
		at(0, 60, 120, 180, 181, 240, 300, 360, 365, 420),
		at(0, 5, 10, 15, 20, 3600, 3605, 3610),
	}
	alphas := []float64{0, 0.05, 0.3, 0.9}
	betas := []float64{2, 5}
	best, err := Calibrate(streams, alphas, betas, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	bestRatio, err := CompressionRatio(streams, best)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range alphas {
		for _, b := range betas {
			p := DefaultParams()
			p.Alpha, p.Beta = a, b
			r, err := CompressionRatio(streams, p)
			if err != nil {
				t.Fatal(err)
			}
			if r < bestRatio {
				t.Fatalf("Calibrate missed better point (α=%v, β=%v): %v < %v", a, b, r, bestRatio)
			}
		}
	}
}

func TestCalibrateEmptyGrid(t *testing.T) {
	if _, err := Calibrate(nil, nil, []float64{2}, DefaultParams()); err == nil {
		t.Fatal("want error for empty grid")
	}
}

func TestDetectPeriodic(t *testing.T) {
	// Clean 5-minute timer.
	per, ok := DetectPeriodic(at(0, 300, 600, 900, 1200), 0.99)
	if !ok {
		t.Fatal("clean periodic stream not detected")
	}
	if per.Period < 299*time.Second || per.Period > 301*time.Second {
		t.Fatalf("period = %v, want ~300s", per.Period)
	}
	// Jittered timer still detected at a looser threshold.
	if _, ok := DetectPeriodic(at(0, 295, 610, 905, 1190, 1505), 0.95); !ok {
		t.Fatal("jittered periodic stream not detected")
	}
	// Random-ish spacing rejected at a strict threshold.
	if _, ok := DetectPeriodic(at(0, 3, 700, 701, 2400), 0.99); ok {
		t.Fatal("aperiodic stream detected as periodic")
	}
	// Too few points.
	if _, ok := DetectPeriodic(at(0, 300, 600), 0.5); ok {
		t.Fatal("3 points should not be enough")
	}
}

// Property: group ids from GroupStream are 0-based, contiguous and
// nondecreasing for any sorted stream.
func TestGroupStreamIDsWellFormed(t *testing.T) {
	streams := [][]time.Time{
		at(0, 1, 2, 3, 4),
		at(0, 300, 600, 900),
		at(0, 7200, 14400, 21600, 28800),
		at(0, 0.1, 0.2, 5000, 5000.1, 12000),
	}
	for _, s := range streams {
		ids, err := GroupStream(s, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) > 0 && ids[0] != 0 {
			t.Fatalf("ids must start at 0: %v", ids)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] != ids[i-1] && ids[i] != ids[i-1]+1 {
				t.Fatalf("ids not contiguous: %v", ids)
			}
		}
	}
}
