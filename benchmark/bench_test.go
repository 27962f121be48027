package main

import (
	"math"
	"regexp"
	"testing"
)

// TestManifestAndSmoke keeps the benchmark and BENCHMARK.json in step and
// proves every workload still builds and runs: at -scale tiny (a few
// thousand messages, in-process shards) each workload's timed run and
// traced run must emit exactly the metrics the manifest declares, each
// finite and well named, and pass its correctness check.
func TestManifestAndSmoke(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	sameMetrics := func(kind string, defs []metricDef, listed []manifestMetric) {
		t.Helper()
		if len(defs) != len(listed) {
			t.Fatalf("%s: program has %d metrics, manifest %d", kind, len(defs), len(listed))
		}
		seen := map[string]bool{}
		for i, def := range defs {
			if listed[i].Name != def.Name || listed[i].Unit != def.Unit {
				t.Errorf("%s[%d]: program has %s (%s), manifest %s (%s)", kind, i, def.Name, def.Unit, listed[i].Name, listed[i].Unit)
			}
			if !nameRE.MatchString(def.Name) || seen[def.Name] {
				t.Errorf("%s: bad or repeated metric name %q", kind, def.Name)
			}
			seen[def.Name] = true
		}
	}
	sameMetrics("end_to_end", endToEnd, mf.EndToEnd)
	sameMetrics("per_layer", perLayer, mf.PerLayer)
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("program has %d workloads, manifest %d", len(workloads), len(mf.Workloads))
	}

	dir := t.TempDir()
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.Name || mf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: program has %q, manifest %q (or their reasons differ)", i, w.Name, mf.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{workload: w, seed: 1, seconds: 0.2, trace: traced, tiny: true, workDir: dir})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				mv, ok := res.Metrics[def.Name]
				if !ok || mv.Unit != def.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s (trace %v): metric %s missing, mis-united or not finite: %+v", w.Name, traced, def.Name, mv)
				}
			}
			if res.Attempted < 1 {
				t.Errorf("%s (trace %v): no operations attempted", w.Name, traced)
			}
			// A lost datagram is the host's doing, not a benchmark defect:
			// the open-loop workload's failures are reported, not asserted.
			if res.Failed != 0 && w.udpRate == 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed", w.Name, traced, res.Failed, res.Attempted)
			} else if res.Failed != 0 {
				t.Logf("%s (trace %v): %d of %d operations failed", w.Name, traced, res.Failed, res.Attempted)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// which the benchmark's contract computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v; want 1, 3", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v; want 2.5", m)
	}
}
