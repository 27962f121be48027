package grouping

import (
	"fmt"
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
// Config.linearScan toggled, the incremental grouper must make byte-identical
// join decisions, merge tallies, and pair counts — only the
// candidates-scanned counters may (and should) shrink. (The batch reference is
// the plain linear oracle; TestMixedCorpusMatchesBatch ties the two.)

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

// mixedBatch is the corpus the resolved-ID windows must not be fooled by: in
// one tight time range (full windows), locations the dictionary interned,
// locations it never saw (a case-mangled and an unconfigured interface on a
// known router), a router with no config at all — overflow IDs and the
// chain-walking fallback — unmatched messages (Template -1, which mixedRules
// pairs with a flap template), and a few messages whose location names a
// different router than the message does.
func mixedBatch(rng *rand.Rand, n int) []Message {
	locs := []locdict.Location{
		locdict.IntfLoc("r1", "Serial1/0.10/10:0"),
		locdict.IntfLoc("r1", "Loopback0"),
		{Router: "r1", Level: locdict.LevelPort, Name: "1/0"},
		{Router: "r1", Level: locdict.LevelSlot, Name: "1"},
		locdict.RouterLoc("r1"),
		locdict.IntfLoc("r1", "serial1/0.10/10:0"), // never interned: case differs
		locdict.IntfLoc("r1", "Serial1/0.99/99:0"), // never interned: no such interface
		locdict.IntfLoc("r2", "Serial1/0.20/20:0"),
		locdict.RouterLoc("r2"),
		locdict.RouterLoc("rX"), // no config for rX
		locdict.IntfLoc("rX", "Serial2/0"),
	}
	base := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	out := make([]Message, n)
	for i := range out {
		loc := locs[rng.Intn(len(locs))]
		out[i] = Message{
			Seq:      i,
			Time:     base.Add(time.Duration(rng.Intn(100)) * time.Second),
			Router:   loc.Router,
			Template: rng.Intn(6) - 1, // -1..4
			Loc:      loc,
		}
		if rng.Intn(40) == 0 {
			out[i].Router = "r2" // whatever the location says
		}
	}
	return out
}

// mixedRules is flapRuleBase plus a rule on the unmatched template, so the
// bucket at index 0 is a partner bucket.
func mixedRules() *rules.RuleBase {
	rb := flapRuleBase()
	rb.Add(rules.Rule{X: -1, Y: tLinkDown, Support: 0.1, Conf: 0.9})
	return rb
}

// stepTrace is one run's observable behaviour, step by step: the join
// decisions RouterLocal.Step made (temporal predecessor Seq or -1, then the
// rule predecessors' Seqs in join order) and the groups Merger.Apply closed.
type stepTrace struct {
	joins  [][]int
	closed [][][]int
	local  LocalStats
	merge  MergeStats
}

// runSteps feeds a sorted batch through one RouterLocal and one Merger,
// draining both (as a Flush does) before step drainAt when it is >= 0.
func runSteps(t *testing.T, rb *rules.RuleBase, cfg Config, sorted []Message, drainAt int) stepTrace {
	t.Helper()
	if cfg.Temporal == (temporal.Params{}) {
		cfg.Temporal = temporal.DefaultParams()
	}
	s, err := NewShardable(toyDict(t), rb, IncrementalConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rl, mg := s.NewLocal(0), s.NewMerger()
	var tr stepTrace
	var js Joins
	for i := range sorted {
		if i == drainAt {
			tr.closed = append(tr.closed, closedToGroups(mg.Drain()))
			rl.DrainWindows()
		}
		p := NewPending(sorted[i])
		if err := rl.Step(p, &js); err != nil {
			t.Fatal(err)
		}
		tr.joins = append(tr.joins, joinSeqs(&js))
		cgs, err := mg.Apply(p, &js)
		if err != nil {
			t.Fatal(err)
		}
		tr.closed = append(tr.closed, closedToGroups(cgs))
	}
	tr.closed = append(tr.closed, closedToGroups(mg.Drain()))
	tr.local, tr.merge = rl.Stats(), mg.Stats()
	return tr
}

func joinSeqs(js *Joins) []int {
	out := []int{-1}
	if js.Temporal != nil {
		out[0] = js.Temporal.msg.Seq
	}
	for _, m := range js.Rules {
		out = append(out, m.msg.Seq)
	}
	return out
}

// TestIncrementalIndexedMatchesLinear is the streaming differential: with
// linearScan on and off, every step must make the same join decisions in
// the same order and close the same groups, and the runs must end with the
// same stats — except the candidates-scanned counters, where the index must
// never examine more than the linear scan. MaxScan walks the bitmap's word
// edges (a window of 63, 64, 65 entries; 256 and 300: a last word full and
// part full); the mixed corpus brings overflow IDs, the unmatched template
// and a mid-feed drain.
func TestIncrementalIndexedMatchesLinear(t *testing.T) {
	for _, tc := range []struct {
		name    string
		gen     func(*rand.Rand, int) []Message
		rb      *rules.RuleBase
		n       int
		drainAt int
	}{
		{"random", randomBatch, flapRuleBase(), 120, -1},
		{"storm", stormBatch, flapRuleBase(), 160, -1},
		{"mixed", mixedBatch, mixedRules(), 1200, 700},
	} {
		for _, maxScan := range []int{0, 1, 63, 64, 65, 256, 300} {
			for _, seed := range []int64{1, 17, 99} {
				batch := sortBatch(tc.gen(rand.New(rand.NewSource(seed)), tc.n))
				lin := runSteps(t, tc.rb, Config{MaxScan: maxScan, linearScan: true}, batch, tc.drainAt)
				idx := runSteps(t, tc.rb, Config{MaxScan: maxScan}, batch, tc.drainAt)
				where := fmt.Sprintf("%s MaxScan %d seed %d", tc.name, maxScan, seed)
				for i := range lin.joins {
					if !reflect.DeepEqual(idx.joins[i], lin.joins[i]) {
						t.Fatalf("%s: step %d (seq %d) joins diverge:\nindexed %v\nlinear  %v",
							where, i, batch[i].Seq, idx.joins[i], lin.joins[i])
					}
				}
				if !reflect.DeepEqual(idx.closed, lin.closed) {
					t.Fatalf("%s: closed groups diverge", where)
				}
				if idx.local.RuleCandidates > lin.local.RuleCandidates {
					t.Fatalf("%s: index scanned more rule candidates (%d) than linear (%d)",
						where, idx.local.RuleCandidates, lin.local.RuleCandidates)
				}
				if idx.merge.CrossCandidates > lin.merge.CrossCandidates {
					t.Fatalf("%s: index scanned more cross candidates (%d) than linear (%d)",
						where, idx.merge.CrossCandidates, lin.merge.CrossCandidates)
				}
				// Everything except the scan counters must be identical.
				idx.local.RuleCandidates, idx.merge.CrossCandidates = 0, 0
				lin.local.RuleCandidates, lin.merge.CrossCandidates = 0, 0
				if idx.local != lin.local || idx.merge != lin.merge {
					t.Fatalf("%s: stats diverge\nindexed %+v %+v\nlinear  %+v %+v",
						where, idx.local, idx.merge, lin.local, lin.merge)
				}
				if tc.name == "mixed" {
					if idx.local.UnresolvedLocs == 0 || idx.local.RulePairs == 0 {
						t.Fatalf("%s: corpus exercised nothing: %+v", where, idx.local)
					}
				} else if idx.local.UnresolvedLocs != 0 {
					t.Fatalf("%s: %d unresolved locations on a fully interned corpus", where, idx.local.UnresolvedLocs)
				}
			}
		}
	}
}

// TestMixedCorpusMatchesBatch holds the resolved windows to the batch
// oracle, which knows nothing of IDs or per-location entries: the partition
// must be the batch grouper's. The linear/indexed differential above cannot
// see a mistake the two scans share — which router's window an arrival goes
// to, when its location names another router — and this can.
func TestMixedCorpusMatchesBatch(t *testing.T) {
	for _, seed := range []int64{2, 23, 71} {
		batch := mixedBatch(rand.New(rand.NewSource(seed)), 600)
		want, err := newGrouper(t, toyDict(t), mixedRules(), Config{}).Group(batch)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]int
		for _, step := range runSteps(t, mixedRules(), Config{}, sortBatch(batch), -1).closed {
			got = append(got, step...)
		}
		if !reflect.DeepEqual(canonical(got), canonical(want.Groups)) {
			t.Fatalf("seed %d: incremental partition differs from the batch grouper's", seed)
		}
	}
}

// TestUnresolvedLocsCountsMessages pins what the tally counts: one per
// message at a location the dictionary never interned, not one per distinct
// location and not one per fallback match.
func TestUnresolvedLocsCountsMessages(t *testing.T) {
	batch := sortBatch(mixedBatch(rand.New(rand.NewSource(5)), 400))
	dict := toyDict(t)
	var want uint64
	for i := range batch {
		if _, ok := dict.LocID(batch[i].Loc); !ok {
			want++
		}
	}
	got := runSteps(t, mixedRules(), Config{}, batch, -1).local.UnresolvedLocs
	if got != want || want == 0 {
		t.Fatalf("unresolved locations %d, want %d (> 0)", got, want)
	}
}

// TestStepRejectsUnindexableTemplate: template buckets are slices, so an ID
// no matcher assigns is an error from both halves, not an index panic or a
// gigabyte bucket table — and it leaves the state untouched.
func TestStepRejectsUnindexableTemplate(t *testing.T) {
	for _, tpl := range []int{-2, maxTemplate + 1} {
		s, err := NewShardable(toyDict(t), flapRuleBase(), IncrementalConfig{Config: Config{Temporal: temporal.DefaultParams()}})
		if err != nil {
			t.Fatal(err)
		}
		rl, mg := s.NewLocal(0), s.NewMerger()
		p := NewPending(Message{Time: t0, Router: "r1", Template: tpl, Loc: locdict.RouterLoc("r1")})
		var js Joins
		if err := rl.Step(p, &js); err == nil {
			t.Fatalf("template %d: Step accepted it", tpl)
		}
		if _, err := mg.Apply(p, &js); err == nil {
			t.Fatalf("template %d: Apply accepted it", tpl)
		}
		if st := rl.Stats(); st.Streams != 0 || mg.Stats().OpenMessages != 0 {
			t.Fatalf("template %d: rejected message left state behind: %+v", tpl, st)
		}
		inc := newSerial(t, Config{})
		if _, err := inc.Observe(p.msg); err == nil {
			t.Fatalf("template %d: Observe accepted it", tpl)
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
// Merger.ActiveRules returns is a snapshot, so corrupting it must not
// leak into the grouper's internal state.
func TestActiveRulesReturnsCopy(t *testing.T) {
	batch := sortBatch(stormBatch(rand.New(rand.NewSource(9)), 120))
	inc := newSerial(t, Config{})
	for i := range batch {
		if _, err := inc.Observe(batch[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := inc.merge.ActiveRules()
	if len(before) == 0 {
		t.Fatal("storm batch produced no rule merges; the copy test needs a live tally")
	}
	for k := range before {
		before[k] = -999
	}
	before[rules.PairKey{X: 1234, Y: 5678}] = 1
	after := inc.merge.ActiveRules()
	for k, v := range after {
		if v <= 0 {
			t.Fatalf("mutating the returned map corrupted internal tally: %v = %d", k, v)
		}
	}
	if _, ok := after[rules.PairKey{X: 1234, Y: 5678}]; ok {
		t.Fatal("inserted key leaked into internal tally")
	}
}

func benchIncremental(b *testing.B, cfg Config) *serial {
	b.Helper()
	if cfg.Temporal == (temporal.Params{}) {
		cfg.Temporal = temporal.DefaultParams()
	}
	return newSerialWith(b, benchToyDict(b), flapRuleBase(), IncrementalConfig{Config: cfg})
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
// degenerate rule base and the full stage): every message lands in the
// global cross ring.
func benchCross(b *testing.B, cfg Config) {
	batch := sortBatch(stormBatch(rand.New(rand.NewSource(13)), 2000))
	b.ReportAllocs()
	b.ResetTimer()
	if cfg.Temporal == (temporal.Params{}) {
		cfg.Temporal = temporal.DefaultParams()
	}
	for i := 0; i < b.N; i++ {
		inc := newSerialWith(b, benchToyDict(b), nil, IncrementalConfig{Config: cfg})
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
