package temporal

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// The references below score a parameter point the straightforward way: a
// GroupStream replay of every stream, once per grid point. The production
// sweep walks the interarrivals once per alpha and scores every beta in
// that walk; TestKernelMatchesReplay and FuzzCalibrate hold it to these
// replays bit for bit, errors included.

// replayRatio is CompressionRatio as a GroupStream replay per stream.
func replayRatio(streams [][]time.Time, p Params) (float64, error) {
	groups, msgs := 0, 0
	for _, ts := range streams {
		ids, err := GroupStream(ts, p)
		if err != nil {
			return 0, err
		}
		msgs += len(ts)
		if len(ids) > 0 {
			groups += ids[len(ids)-1] + 1
		}
	}
	if msgs == 0 {
		return 1, nil
	}
	return float64(groups) / float64(msgs), nil
}

// replayCalibrate is Calibrate as a serial replay of every grid point,
// keeping the first minimum in grid order.
func replayCalibrate(streams [][]time.Time, alphas, betas []float64, base Params) (Params, error) {
	if len(alphas) == 0 || len(betas) == 0 {
		return Params{}, fmt.Errorf("temporal: empty calibration grid")
	}
	best, bestRatio, found := base, 2.0, false
	for _, a := range alphas {
		for _, b := range betas {
			p := base
			p.Alpha, p.Beta = a, b
			r, err := replayRatio(streams, p)
			if err != nil {
				return Params{}, err
			}
			if !found || r < bestRatio {
				best, bestRatio, found = p, r, true
			}
		}
	}
	return best, nil
}

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// diffPoints describes the first difference between two sweeps, ratios
// compared bit for bit; "" when they agree.
func diffPoints(got, want []SweepPoint) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d points, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Alpha != w.Alpha || g.Beta != w.Beta || math.Float64bits(g.Ratio) != math.Float64bits(w.Ratio) {
			return fmt.Sprintf("point %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// checkAgainstReplay holds every entry point of the sweep — Calibrate at
// GOMAXPROCS 1 and 3, SweepAlpha, SweepBeta and CompressionRatio —
// to the replays on one grid.
func checkAgainstReplay(t *testing.T, streams [][]time.Time, alphas, betas []float64, base Params) {
	t.Helper()
	want, wantErr := replayCalibrate(streams, alphas, betas, base)
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := Calibrate(streams, alphas, betas, base)
		runtime.GOMAXPROCS(prev)
		if !sameErr(err, wantErr) || got != want {
			t.Fatalf("Calibrate at GOMAXPROCS %d = %+v, %v; replay = %+v, %v", procs, got, err, want, wantErr)
		}
	}
	for _, a := range alphas {
		var want []SweepPoint
		var wantErr error
		for _, b := range betas {
			p := base
			p.Alpha, p.Beta = a, b
			r, err := replayRatio(streams, p)
			if err != nil {
				want, wantErr = nil, err
				break
			}
			want = append(want, SweepPoint{Alpha: a, Beta: b, Ratio: r})
		}
		got, err := SweepBeta(streams, betas, a, base)
		if !sameErr(err, wantErr) {
			t.Fatalf("SweepBeta(alpha %v) error %v, replay %v", a, err, wantErr)
		}
		if d := diffPoints(got, want); err == nil && d != "" {
			t.Fatalf("SweepBeta(alpha %v): %s", a, d)
		}
	}
	for _, b := range betas {
		var want []SweepPoint
		var wantErr error
		for _, a := range alphas {
			p := base
			p.Alpha, p.Beta = a, b
			r, err := replayRatio(streams, p)
			if err != nil {
				want, wantErr = nil, err
				break
			}
			want = append(want, SweepPoint{Alpha: a, Beta: b, Ratio: r})
		}
		got, err := SweepAlpha(streams, alphas, b, base)
		if !sameErr(err, wantErr) {
			t.Fatalf("SweepAlpha(beta %v) error %v, replay %v", b, err, wantErr)
		}
		if d := diffPoints(got, want); err == nil && d != "" {
			t.Fatalf("SweepAlpha(beta %v): %s", b, d)
		}
	}
	for _, a := range alphas {
		for _, b := range betas {
			p := base
			p.Alpha, p.Beta = a, b
			want, wantErr := replayRatio(streams, p)
			got, err := CompressionRatio(streams, p)
			if !sameErr(err, wantErr) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("CompressionRatio(%+v) = %v, %v; replay = %v, %v", p, got, err, want, wantErr)
			}
		}
	}
}

// The parameter values the oracle draws from: the edges of alpha's range,
// β = 1, a zero β (which takes the default), invalid values, and defaulted,
// custom and invalid Smin/Smax bases.
var (
	oracleAlphas = []float64{0, 1, 0.01, 0.05, 0.3, 0.6, -0.1, 1.5}
	oracleBetas  = []float64{1, 2, 3.5, 5, 7, 0, 100, 0.5}
	oracleBases  = []Params{
		DefaultParams(),
		{},
		{Smin: 2 * time.Second, Smax: 10 * time.Minute},
		{Smin: 10 * time.Minute, Smax: 10 * time.Minute},
	}
)

// oracleGaps are the interarrivals the oracle's streams are built from:
// negative gaps (out-of-order arrivals), sub-second gaps, and gaps exactly
// at and one nanosecond either side of every base's Smin and Smax.
var oracleGaps = []time.Duration{
	0, -time.Second, -3 * time.Hour, 500 * time.Millisecond,
	time.Second - 1, time.Second, time.Second + 1,
	2 * time.Second, 7 * time.Second, 45 * time.Second, 2 * time.Minute,
	10*time.Minute - 1, 10 * time.Minute, 10*time.Minute + 1,
	3*time.Hour - 1, 3 * time.Hour, 3*time.Hour + 1, 5 * time.Hour,
}

// streamsFrom decodes bytes into arrival streams: 0xFF starts a new stream
// (so empty streams occur), any other byte appends one arrival whose gap is
// oracleGaps[b&0x1F] (the first arrival of a stream ignores it), plus
// b>>5 seconds when that is nonzero.
func streamsFrom(data []byte) [][]time.Time {
	streams := [][]time.Time{nil}
	for _, b := range data {
		if b == 0xFF {
			streams = append(streams, nil)
			continue
		}
		cur := &streams[len(streams)-1]
		if len(*cur) == 0 {
			*cur = append(*cur, t0)
			continue
		}
		gap := oracleGaps[int(b&0x1F)%len(oracleGaps)] + time.Duration(b>>5)*time.Second
		*cur = append(*cur, (*cur)[len(*cur)-1].Add(gap))
	}
	return streams
}

// pick returns the values whose bit is set in mask.
func pick(vals []float64, mask uint8) []float64 {
	var out []float64
	for i, v := range vals {
		if mask&(1<<i) != 0 {
			out = append(out, v)
		}
	}
	return out
}

func TestKernelMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		data := make([]byte, rng.Intn(120))
		rng.Read(data)
		var streams [][]time.Time
		switch i % 5 {
		case 0: // no streams at all
		case 1: // only empty streams
			streams = make([][]time.Time, 1+rng.Intn(3))
		default:
			streams = streamsFrom(data)
		}
		// Mostly the first six values of each list, all valid; every
		// seventh grid may also take the invalid ones at the end.
		masks := 64
		if i%7 == 0 {
			masks = 256
		}
		alphas := pick(oracleAlphas, uint8(rng.Intn(masks)))
		betas := pick(oracleBetas, uint8(rng.Intn(masks)))
		checkAgainstReplay(t, streams, alphas, betas, oracleBases[rng.Intn(len(oracleBases))])
	}
}

func FuzzCalibrate(f *testing.F) {
	f.Add([]byte{0, 5, 5, 5, 0xFF, 0, 40, 40, 1, 2, 0xFF, 0xFF, 0, 15, 16, 14}, uint8(0x3F), uint8(0x1F), uint8(0))
	f.Add([]byte{0, 6, 6, 6, 12, 12, 0xFF, 0, 1, 2, 3}, uint8(0xFF), uint8(0xFF), uint8(2))
	f.Add([]byte{}, uint8(0xC0), uint8(0x80), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, alphaMask, betaMask, base uint8) {
		if len(data) > 4096 {
			return
		}
		checkAgainstReplay(t, streamsFrom(data), pick(oracleAlphas, alphaMask), pick(oracleBetas, betaMask),
			oracleBases[int(base)%len(oracleBases)])
	})
}
