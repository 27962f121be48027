package grouping

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"syslogdigest/internal/locdict"
	"syslogdigest/internal/netconf"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/temporal"
)

// Differential tests for the template-indexed rule and cross windows: with
// Config.linearScan toggled, the incremental and batch groupers must emit
// byte-identical partitions, merge tallies, and pair counts — only the
// candidates-scanned counters may (and should) shrink.

// stormBatch concentrates n messages on few templates in a tight time
// range, the worst case for the linear window scan: nearly every window
// entry is live when each message arrives.
func stormBatch(rng *rand.Rand, n int) []Message {
	locs := []locdict.Location{
		locdict.IntfLoc("r1", "Serial1/0.10/10:0"),
		locdict.IntfLoc("r2", "Serial1/0.20/20:0"),
		locdict.RouterLoc("r1"),
		locdict.RouterLoc("r2"),
	}
	base := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	out := make([]Message, n)
	for i := range out {
		loc := locs[rng.Intn(len(locs))]
		out[i] = Message{
			Seq:      i,
			Time:     base.Add(time.Duration(rng.Intn(90)) * time.Second),
			Router:   loc.Router,
			Template: 1 + rng.Intn(4),
			Loc:      loc,
		}
	}
	return out
}

func sortBatch(batch []Message) []Message {
	sorted := append([]Message(nil), batch...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if !sorted[i].Time.Equal(sorted[j].Time) {
			return sorted[i].Time.Before(sorted[j].Time)
		}
		return sorted[i].Seq < sorted[j].Seq
	})
	return sorted
}

// runIncremental feeds a sorted batch through one incremental grouper and
// returns the full closed-group sequence (per-step plus drain) and stats.
func runIncremental(t *testing.T, cfg Config, sorted []Message) ([][][]int, IncStats) {
	t.Helper()
	inc := newIncremental(t, cfg)
	out := make([][][]int, 0, len(sorted)+1)
	for i := range sorted {
		cgs, err := inc.Observe(sorted[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, closedToGroups(cgs))
	}
	out = append(out, closedToGroups(inc.Drain()))
	return out, inc.Stats()
}

// TestIncrementalIndexedMatchesLinear is the streaming differential: over
// random and storm-shaped batches, linearScan on and off must produce the
// same closed groups at every step, the same drain, and the same stats —
// except the candidates-scanned counters, where the index must never
// examine more than the linear scan.
func TestIncrementalIndexedMatchesLinear(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(*rand.Rand, int) []Message
		n    int
	}{
		{"random", randomBatch, 120},
		{"storm", stormBatch, 160},
	} {
		for _, seed := range []int64{1, 17, 99} {
			batch := sortBatch(tc.gen(rand.New(rand.NewSource(seed)), tc.n))
			linOut, linStats := runIncremental(t, Config{linearScan: true}, batch)
			idxOut, idxStats := runIncremental(t, Config{}, batch)
			if !reflect.DeepEqual(idxOut, linOut) {
				t.Fatalf("%s seed %d: closed groups diverge", tc.name, seed)
			}
			if idxStats.RulePairs != linStats.RulePairs {
				t.Fatalf("%s seed %d: rule pairs diverge: indexed %d linear %d",
					tc.name, seed, idxStats.RulePairs, linStats.RulePairs)
			}
			if idxStats.RuleCandidates > linStats.RuleCandidates {
				t.Fatalf("%s seed %d: index scanned more rule candidates (%d) than linear (%d)",
					tc.name, seed, idxStats.RuleCandidates, linStats.RuleCandidates)
			}
			if idxStats.CrossCandidates > linStats.CrossCandidates {
				t.Fatalf("%s seed %d: index scanned more cross candidates (%d) than linear (%d)",
					tc.name, seed, idxStats.CrossCandidates, linStats.CrossCandidates)
			}
			// Everything except the scan counters must be identical.
			idxStats.RuleCandidates, idxStats.CrossCandidates = 0, 0
			linStats.RuleCandidates, linStats.CrossCandidates = 0, 0
			if idxStats != linStats {
				t.Fatalf("%s seed %d: stats diverge\nindexed %+v\nlinear  %+v", tc.name, seed, idxStats, linStats)
			}
		}
	}
}

// TestBatchGroupIndexedMatchesLinear is the batch differential: the
// Grouper's partition and ActiveRules tally must not depend on linearScan.
func TestBatchGroupIndexedMatchesLinear(t *testing.T) {
	dict := toyDict(t)
	rb := flapRuleBase()
	for _, gen := range []func(*rand.Rand, int) []Message{randomBatch, stormBatch} {
		for _, seed := range []int64{3, 21, 77} {
			batch := gen(rand.New(rand.NewSource(seed)), 150)
			gl := newGrouper(t, dict, rb, Config{linearScan: true})
			gi := newGrouper(t, dict, rb, Config{})
			rl, err := gl.Group(batch)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := gi.Group(batch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ri.Groups, rl.Groups) || !reflect.DeepEqual(ri.GroupOf, rl.GroupOf) {
				t.Fatalf("seed %d: partitions diverge", seed)
			}
			if !reflect.DeepEqual(ri.ActiveRules, rl.ActiveRules) {
				t.Fatalf("seed %d: ActiveRules diverge\nindexed %v\nlinear  %v", seed, ri.ActiveRules, rl.ActiveRules)
			}
		}
	}
}

// TestBatchRulePassDeterministic pins the sorted-router iteration: the
// same batch grouped repeatedly yields the same partition and the same
// ActiveRules tally every run (the rule pass used to walk a Go map).
func TestBatchRulePassDeterministic(t *testing.T) {
	dict := toyDict(t)
	rb := flapRuleBase()
	batch := stormBatch(rand.New(rand.NewSource(5)), 200)
	var first *Result
	for run := 0; run < 6; run++ {
		g := newGrouper(t, dict, rb, Config{})
		res, err := g.Group(batch)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if !reflect.DeepEqual(res.Groups, first.Groups) {
			t.Fatalf("run %d: partition differs from run 0", run)
		}
		if !reflect.DeepEqual(res.ActiveRules, first.ActiveRules) {
			t.Fatalf("run %d: ActiveRules differ from run 0\ngot  %v\nwant %v", run, res.ActiveRules, first.ActiveRules)
		}
	}
}

// TestActiveRulesReturnsCopy pins the mutation-safety fix: the tally map
// Incremental.ActiveRules returns is a snapshot, so corrupting it must not
// leak into the grouper's internal state.
func TestActiveRulesReturnsCopy(t *testing.T) {
	batch := sortBatch(stormBatch(rand.New(rand.NewSource(9)), 120))
	inc := newIncremental(t, Config{})
	for i := range batch {
		if _, err := inc.Observe(batch[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := inc.ActiveRules()
	if len(before) == 0 {
		t.Fatal("storm batch produced no rule merges; the copy test needs a live tally")
	}
	for k := range before {
		before[k] = -999
	}
	before[rules.PairKey{X: 1234, Y: 5678}] = 1
	after := inc.ActiveRules()
	for k, v := range after {
		if v <= 0 {
			t.Fatalf("mutating the returned map corrupted internal tally: %v = %d", k, v)
		}
	}
	if _, ok := after[rules.PairKey{X: 1234, Y: 5678}]; ok {
		t.Fatal("inserted key leaked into internal tally")
	}
}

func benchIncremental(b *testing.B, cfg Config) *Incremental {
	b.Helper()
	if cfg.Temporal == (temporal.Params{}) {
		cfg.Temporal = temporal.DefaultParams()
	}
	inc, err := NewIncremental(benchToyDict(b), flapRuleBase(), IncrementalConfig{Config: cfg})
	if err != nil {
		b.Fatal(err)
	}
	return inc
}

func benchToyDict(b *testing.B) *locdict.Dictionary {
	b.Helper()
	r1 := &netconf.Config{
		Hostname: "r1", Vendor: syslogmsg.VendorV1,
		Interfaces: []netconf.Interface{
			{Name: "Serial1/0.10/10:0", IP: "10.0.0.1", PrefixLen: 30},
		},
	}
	r2 := &netconf.Config{
		Hostname: "r2", Vendor: syslogmsg.VendorV1,
		Interfaces: []netconf.Interface{
			{Name: "Serial1/0.20/20:0", IP: "10.0.0.2", PrefixLen: 30},
		},
	}
	d, err := locdict.Build([]*netconf.Config{r1, r2})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchRuleStorm drives a storm batch through the incremental grouper;
// the rule and cross windows stay near-full throughout, so the delta
// between the Indexed and Linear variants is the candidate-scan cost.
func benchRuleStorm(b *testing.B, cfg Config) {
	batch := sortBatch(stormBatch(rand.New(rand.NewSource(11)), 2000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := benchIncremental(b, cfg)
		for j := range batch {
			if _, err := inc.Observe(batch[j]); err != nil {
				b.Fatal(err)
			}
		}
		inc.Drain()
	}
	b.StopTimer()
	inc := benchIncremental(b, cfg)
	for j := range batch {
		if _, err := inc.Observe(batch[j]); err != nil {
			b.Fatal(err)
		}
	}
	st := inc.Stats()
	b.ReportMetric(float64(st.RuleCandidates), "rule-cands/run")
	b.ReportMetric(float64(st.CrossCandidates), "cross-cands/run")
}

func BenchmarkRuleStepIndexed(b *testing.B) { benchRuleStorm(b, Config{}) }
func BenchmarkRuleStepLinear(b *testing.B)  { benchRuleStorm(b, Config{linearScan: true}) }

// benchCross drives only the cross pass (temporal and rule disabled via a
// degenerate rule base and OnlyTemporal off): every message lands in the
// global cross ring.
func benchCross(b *testing.B, cfg Config) {
	batch := sortBatch(stormBatch(rand.New(rand.NewSource(13)), 2000))
	b.ReportAllocs()
	b.ResetTimer()
	if cfg.Temporal == (temporal.Params{}) {
		cfg.Temporal = temporal.DefaultParams()
	}
	for i := 0; i < b.N; i++ {
		inc, err := NewIncremental(benchToyDict(b), nil, IncrementalConfig{Config: cfg})
		if err != nil {
			b.Fatal(err)
		}
		for j := range batch {
			if _, err := inc.Observe(batch[j]); err != nil {
				b.Fatal(err)
			}
		}
		inc.Drain()
	}
}

func BenchmarkCrossStepIndexed(b *testing.B) { benchCross(b, Config{}) }
func BenchmarkCrossStepLinear(b *testing.B)  { benchCross(b, Config{linearScan: true}) }
