package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// median and quartiles follow Python's statistics.median and
// statistics.quantiles(values, n=4) (the exclusive method), so a spread
// computed here is the spread the benchmark's contract is checked with.

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile; with fewer than two
// values both are the median.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n < 2 {
		return median(values), median(values)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentile is the nearest-rank percentile, lowered to the highest rank
// that still has ten samples beyond it when the sample is too small for p
// (0 for an empty sample).
func percentile(values []float64, p float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	idx := min(int(p*float64(n)), n-1)
	if p > 0.5 {
		idx = max(min(idx, n-11), n/2)
	}
	return s[idx]
}

// summary is one (workload, metric) cell of a result set: the values of
// its repeated runs and their median and quartiles.
type summary struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Kind     string    `json:"kind"` // "end_to_end" or "per_layer"
	N        int       `json:"n"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Values   []float64 `json:"values"`
}

func summarize(workload, kind string, def metricDef, values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{
		Workload: workload, Metric: def.Name, Unit: def.Unit, Kind: kind,
		N: len(values), Median: median(values), Q1: q1, Q3: q3, Values: values,
	}
}

// resultSet is what `go run ./benchmark -out file` writes and -compare
// reads.
type resultSet struct {
	Header  header    `json:"header"`
	Results []summary `json:"results"`
}

// header is the fingerprint of a result set: enough to tell whether two
// sets are comparable.
type header struct {
	Seed             int64               `json:"seed"`
	Seconds          float64             `json:"seconds"`
	Reps             int                 `json:"reps"`
	Scale            string              `json:"scale"`
	NProc            int                 `json:"nproc"`
	GOMAXPROCS       int                 `json:"gomaxprocs"`
	GoVersion        string              `json:"go_version"`
	ClusterTransport string              `json:"cluster_transport"`
	Corpus           map[string][2]int   `json:"corpus"`     // workload → {learning messages, feed messages}
	Operations       map[string][2]int64 `json:"operations"` // workload → {attempted, failed}
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// manifest is the part of BENCHMARK.json the program reads back: the
// regression bound of each end-to-end metric.
type manifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []manifestMetric             `json:"end_to_end"`
	PerLayer  []manifestMetric             `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &mf, nil
}

// compare reports, per end-to-end (metric, workload) pair, whether two
// result sets' medians agree within the metric's bound: "unresolved" where
// either set's quartile spread exceeds the bound, "disagree" where the
// medians differ by more than it. It returns the number of pairs that are
// not "agree".
func compare(w io.Writer, mf *manifest, a, b *resultSet) int {
	find := func(rs *resultSet, workload, metric string) *summary {
		for i := range rs.Results {
			if s := &rs.Results[i]; s.Workload == workload && s.Metric == metric && s.Kind == "end_to_end" {
				return s
			}
		}
		return nil
	}
	spread := func(s *summary) float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }
	bad := 0
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "diff", "spread", "bound", "verdict")
	for _, wl := range mf.Workloads {
		for _, mm := range mf.EndToEnd {
			sa, sb := find(a, wl.Name, mm.Name), find(b, wl.Name, mm.Name)
			if sa == nil || sb == nil {
				fmt.Fprintf(w, "%-16s %-24s missing from a result set\n", wl.Name, mm.Name)
				bad++
				continue
			}
			diff := math.Abs(sb.Median-sa.Median) / math.Abs(sa.Median)
			sp := math.Max(spread(sa), spread(sb))
			verdict := "agree"
			switch {
			case sp > mm.Bound:
				verdict = "unresolved"
			case diff > mm.Bound:
				verdict = "disagree"
			}
			if verdict != "agree" {
				bad++
			}
			fmt.Fprintf(w, "%-16s %-24s %14.4f %14.4f %7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, mm.Name, sa.Median, sb.Median, diff*100, sp*100, mm.Bound*100, verdict)
		}
	}
	return bad
}
