package rules

import (
	"testing"
	"time"
)

var t0 = time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)

func ev(router string, tmpl int, secs float64) Event {
	return Event{Time: t0.Add(time.Duration(secs * float64(time.Second))), Router: router, Template: tmpl}
}

// flapEvents builds n link-flap episodes on one router: template 1 (link)
// always followed one second later by template 2 (line protocol), episodes
// spaced far apart.
func flapEvents(router string, n int) []Event {
	var out []Event
	for i := 0; i < n; i++ {
		base := float64(i) * 1000
		out = append(out, ev(router, 1, base), ev(router, 2, base+1))
	}
	return out
}

func TestMineBasicAssociation(t *testing.T) {
	events := flapEvents("r1", 50)
	res, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 100 {
		t.Fatalf("transactions = %d, want 100 (one per message)", res.Transactions)
	}
	// 1 => 2 must qualify: every template-1 window contains template 2.
	found12 := false
	for _, r := range res.Rules {
		if r.X == 1 && r.Y == 2 {
			found12 = true
			if r.Conf != 1.0 {
				t.Fatalf("conf(1=>2) = %v, want 1", r.Conf)
			}
		}
	}
	if !found12 {
		t.Fatalf("rule 1=>2 not mined; rules = %+v", res.Rules)
	}
	// 2 => 1 must NOT qualify: a template-2 window never contains a later
	// template 1 (forward window, next flap is 999s away).
	for _, r := range res.Rules {
		if r.X == 2 && r.Y == 1 {
			t.Fatalf("rule 2=>1 should not qualify: %+v", r)
		}
	}
}

func TestMineConfMinFilters(t *testing.T) {
	// Template 1 is followed by 2 only half the time.
	var events []Event
	for i := 0; i < 40; i++ {
		base := float64(i) * 1000
		events = append(events, ev("r1", 1, base))
		if i%2 == 0 {
			events = append(events, ev("r1", 2, base+1))
		}
	}
	res, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rules {
		if r.X == 1 && r.Y == 2 {
			t.Fatalf("conf ~0.5 rule passed ConfMin=0.8: %+v", r)
		}
	}
	res, err = Mine(events, Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Rules {
		if r.X == 1 && r.Y == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("rule should pass at ConfMin=0.4")
	}
}

func TestMineSPminFilters(t *testing.T) {
	// Rare template 3 co-occurs perfectly with 4, but appears in only 2 of
	// ~200 transactions.
	events := flapEvents("r1", 100)
	events = append(events, ev("r1", 3, 500000), ev("r1", 4, 500000.5))
	res, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.05, ConfMin: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rules {
		if r.X == 3 || r.X == 4 {
			t.Fatalf("rare-antecedent rule passed SPmin: %+v", r)
		}
	}
}

func TestMinePerRouterTransactions(t *testing.T) {
	// Template 1 on r1 and template 2 on r2 at the same times: never the
	// same transaction, so no rule.
	var events []Event
	for i := 0; i < 50; i++ {
		base := float64(i) * 100
		events = append(events, ev("r1", 1, base), ev("r2", 2, base+1))
	}
	res, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.001, ConfMin: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) != 0 {
		t.Fatalf("cross-router co-occurrence mined as rule: %+v", res.Rules)
	}
}

func TestMineWindowGrowsRules(t *testing.T) {
	// Templates 5 and 6 fire 30 seconds apart (the paper's controller/link
	// example: implicit timing relationships appear as W grows).
	var events []Event
	for i := 0; i < 50; i++ {
		base := float64(i) * 1000
		events = append(events, ev("r1", 5, base), ev("r1", 6, base+30))
	}
	narrow, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Mine(events, Config{Window: 60 * time.Second, SPmin: 0.01, ConfMin: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow.Rules) != 0 {
		t.Fatalf("W=10s should not connect 30s-apart templates: %+v", narrow.Rules)
	}
	if len(wide.Rules) == 0 {
		t.Fatal("W=60s should connect 30s-apart templates")
	}
}

func TestMineEmptyAndConfigErrors(t *testing.T) {
	res, err := Mine(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 0 || len(res.Rules) != 0 {
		t.Fatalf("empty mine = %+v", res)
	}
	for _, bad := range []Config{
		{Window: -time.Second},
		{SPmin: 2},
		{ConfMin: -0.1},
		{MaxItemsPerTx: -1},
		{MinEvidence: -1},
	} {
		if _, err := Mine(nil, bad); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestMineDeterministic(t *testing.T) {
	events := append(flapEvents("r1", 30), flapEvents("r2", 30)...)
	a, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rules) != len(b.Rules) {
		t.Fatal("nondeterministic rule count")
	}
	for i := range a.Rules {
		if a.Rules[i] != b.Rules[i] {
			t.Fatalf("rule %d differs: %+v vs %+v", i, a.Rules[i], b.Rules[i])
		}
	}
}

func TestMaxItemsPerTxCapsStorm(t *testing.T) {
	// 200 distinct templates in one second; cap keeps pair counting sane.
	var events []Event
	for i := 0; i < 200; i++ {
		events = append(events, ev("r1", i, float64(i)*0.001))
	}
	res, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.0001, ConfMin: 0.01, MaxItemsPerTx: 8})
	if err != nil {
		t.Fatal(err)
	}
	// First transaction saw at most 8 items => at most C(8,2)=28 pairs from
	// it; overall pair keys bounded far below C(200,2).
	if len(res.PairTx) > 200*8 {
		t.Fatalf("pair explosion despite cap: %d pairs", len(res.PairTx))
	}
}

func TestResultConf(t *testing.T) {
	events := flapEvents("r1", 50)
	res, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.8, MinEvidence: 5})
	if err != nil {
		t.Fatal(err)
	}
	conf, ok := res.Conf(1, 2)
	if !ok || conf != 1.0 {
		t.Fatalf("Conf(1,2) = (%v, %v)", conf, ok)
	}
	// Template 99 never occurred: not measurable.
	if _, ok := res.Conf(99, 2); ok {
		t.Fatal("absent antecedent should not be measurable")
	}
}

func TestRuleBaseUpdateAddAndRefresh(t *testing.T) {
	rb := NewRuleBase()
	events := flapEvents("r1", 50)
	res, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	st := rb.Update(res)
	if st.Added == 0 || st.Deleted != 0 || st.Total != rb.Len() {
		t.Fatalf("first update = %+v", st)
	}
	if !rb.HasPair(1, 2) {
		t.Fatal("rule base missing 1<->2")
	}
	// Re-applying the same result adds nothing and deletes nothing.
	st = rb.Update(res)
	if st.Added != 0 || st.Deleted != 0 {
		t.Fatalf("idempotent update = %+v", st)
	}
}

func TestRuleBaseConservativeDeletion(t *testing.T) {
	rb := NewRuleBase()
	good, err := Mine(flapEvents("r1", 50), Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rb.Update(good)
	n := rb.Len()
	if n == 0 {
		t.Fatal("no rules to start with")
	}

	// Period where template 1 occurs often but is never followed by 2:
	// the rule is contradicted and must be deleted.
	var contradict []Event
	for i := 0; i < 50; i++ {
		contradict = append(contradict, ev("r1", 1, float64(i)*1000))
	}
	res, err := Mine(contradict, Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	st := rb.Update(res)
	if st.Deleted == 0 || rb.Has(1, 2) {
		t.Fatalf("contradicted rule survived: %+v, has=%v", st, rb.Has(1, 2))
	}

	// Rebuild, then run a period where template 1 never occurs: the rule
	// must survive (conservative deletion).
	rb = NewRuleBase()
	rb.Update(good)
	var absent []Event
	for i := 0; i < 50; i++ {
		absent = append(absent, ev("r1", 7, float64(i)*1000), ev("r1", 8, float64(i)*1000+1))
	}
	res, err = Mine(absent, Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	st = rb.Update(res)
	if !rb.Has(1, 2) {
		t.Fatal("rule deleted although its antecedent was absent this period")
	}
	if st.Added == 0 {
		t.Fatal("new 7=>8 rule should have been added")
	}
}

func TestRuleBasePairs(t *testing.T) {
	rb := NewRuleBase()
	res, err := Mine(flapEvents("r1", 50), Config{Window: 10 * time.Second, SPmin: 0.01, ConfMin: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rb.Update(res)
	pairs := rb.Pairs()
	for _, p := range pairs {
		if p.X >= p.Y {
			t.Fatalf("pair not canonical: %+v", p)
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	rs := rb.Rules()
	for i := 1; i < len(rs); i++ {
		if rs[i-1].X > rs[i].X || (rs[i-1].X == rs[i].X && rs[i-1].Y >= rs[i].Y) {
			t.Fatal("Rules() not sorted")
		}
	}
}

func TestProfileTable5Semantics(t *testing.T) {
	// Two chatty templates (1, 2) + one rare (3).
	events := flapEvents("r1", 100)
	events = append(events, ev("r1", 3, 999999))
	res, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.0001, ConfMin: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{1: 100, 2: 100, 3: 1}
	p := res.Profile(0.05, counts)
	if p.TypesTotal != 3 || p.TypesEligible != 2 {
		t.Fatalf("profile = %+v", p)
	}
	if p.TopTypePct < 0.6 || p.TopTypePct > 0.7 {
		t.Fatalf("TopTypePct = %v", p.TopTypePct)
	}
	wantCov := 200.0 / 201.0
	if p.CoveragePct < wantCov-1e-9 || p.CoveragePct > wantCov+1e-9 {
		t.Fatalf("CoveragePct = %v, want %v", p.CoveragePct, wantCov)
	}
	// Tiny SPmin admits everything.
	p = res.Profile(0.000001, counts)
	if p.TypesEligible != 3 || p.CoveragePct != 1 {
		t.Fatalf("loose profile = %+v", p)
	}
	// Degenerate inputs.
	empty := &Result{cfg: res.cfg}
	if p := empty.Profile(0.5, counts); p.TypesTotal != 0 {
		t.Fatalf("empty-result profile = %+v", p)
	}
}

// Property: rule counts are monotone — raising ConfMin can only shrink the
// rule set (the trend behind Figure 6).
func TestRuleCountMonotoneInConfMin(t *testing.T) {
	var events []Event
	for i := 0; i < 60; i++ {
		base := float64(i) * 500
		events = append(events, ev("r1", 1, base), ev("r1", 2, base+1))
		if i%3 == 0 {
			events = append(events, ev("r1", 3, base+2))
		}
	}
	prev := 1 << 30
	for _, cm := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		res, err := Mine(events, Config{Window: 10 * time.Second, SPmin: 0.001, ConfMin: cm})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rules) > prev {
			t.Fatalf("rules grew when ConfMin rose to %v", cm)
		}
		prev = len(res.Rules)
	}
}
