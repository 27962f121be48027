package grouping

import (
	"testing"
	"time"

	"syslogdigest/internal/locdict"
	"syslogdigest/internal/netconf"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/temporal"
)

var t0 = time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)

// Template ids used across these tests, mirroring the paper's toy example:
// t1 = LINK down, t2 = LINEPROTO down, t3 = LINK up, t4 = LINEPROTO up.
const (
	tLinkDown  = 1
	tProtoDown = 2
	tLinkUp    = 3
	tProtoUp   = 4
)

// toyDict wires the Table 2 topology: r1's Serial1/0.10/10:0 is connected
// to r2's Serial1/0.20/20:0.
func toyDict(t testing.TB) *locdict.Dictionary {
	t.Helper()
	r1 := &netconf.Config{
		Hostname: "r1", Vendor: syslogmsg.VendorV1,
		Interfaces: []netconf.Interface{
			{Name: "Loopback0", IP: "192.168.0.1", PrefixLen: 32},
			{Name: "Serial1/0.10/10:0", IP: "10.0.0.1", PrefixLen: 30},
		},
	}
	r2 := &netconf.Config{
		Hostname: "r2", Vendor: syslogmsg.VendorV1,
		Interfaces: []netconf.Interface{
			{Name: "Loopback0", IP: "192.168.0.2", PrefixLen: 32},
			{Name: "Serial1/0.20/20:0", IP: "10.0.0.2", PrefixLen: 30},
		},
	}
	d, err := locdict.Build([]*netconf.Config{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// flapRuleBase returns rules connecting the flap templates, as offline
// mining would learn from historical flaps.
func flapRuleBase() *rules.RuleBase {
	rb := rules.NewRuleBase()
	rb.Add(rules.Rule{X: tLinkDown, Y: tProtoDown, Support: 0.1, Conf: 0.95})
	rb.Add(rules.Rule{X: tLinkUp, Y: tProtoUp, Support: 0.1, Conf: 0.95})
	rb.Add(rules.Rule{X: tLinkDown, Y: tLinkUp, Support: 0.1, Conf: 0.9})
	return rb
}

// table2Messages builds the paper's 16-message toy example.
func table2Messages(t *testing.T) []Message {
	t.Helper()
	l1 := locdict.IntfLoc("r1", "Serial1/0.10/10:0")
	l2 := locdict.IntfLoc("r2", "Serial1/0.20/20:0")
	mk := func(seq int, secs int, router string, tmpl int, loc locdict.Location) Message {
		return Message{
			Seq: seq, Time: t0.Add(time.Duration(secs) * time.Second),
			Router: router, Template: tmpl, Loc: loc,
			AllLocs: []locdict.Location{loc, locdict.RouterLoc(router)},
		}
	}
	return []Message{
		mk(0, 0, "r1", tLinkDown, l1), mk(1, 0, "r2", tLinkDown, l2),
		mk(2, 1, "r1", tProtoDown, l1), mk(3, 1, "r2", tProtoDown, l2),
		mk(4, 10, "r1", tLinkUp, l1), mk(5, 10, "r2", tLinkUp, l2),
		mk(6, 11, "r1", tProtoUp, l1), mk(7, 11, "r2", tProtoUp, l2),
		mk(8, 20, "r1", tLinkDown, l1), mk(9, 20, "r2", tLinkDown, l2),
		mk(10, 21, "r1", tProtoDown, l1), mk(11, 21, "r2", tProtoDown, l2),
		mk(12, 30, "r1", tLinkUp, l1), mk(13, 30, "r2", tLinkUp, l2),
		mk(14, 31, "r1", tProtoUp, l1), mk(15, 31, "r2", tProtoUp, l2),
	}
}

// newGrouper builds the Shardable whose Group is the three-pass batch
// reference.
func newGrouper(t *testing.T, dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config) *Shardable {
	t.Helper()
	if cfg.Temporal == (temporal.Params{}) {
		cfg.Temporal = temporal.DefaultParams()
	}
	s, err := NewShardable(dict, rb, IncrementalConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTable2ToyBecomesOneEvent is the paper's §3 running example: 16 raw
// messages across two routers collapse into one network event.
func TestTable2ToyBecomesOneEvent(t *testing.T) {
	g := newGrouper(t, toyDict(t), flapRuleBase(), Config{})
	res, err := g.Group(table2Messages(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d, want 1; partition %v", len(res.Groups), res.GroupOf)
	}
	if len(res.Groups[0]) != 16 {
		t.Fatalf("group size = %d, want 16", len(res.Groups[0]))
	}
	if len(res.ActiveRules) == 0 {
		t.Fatal("no active rules recorded")
	}
}

// TestStagedCompression: T alone groups less than T+R, which groups less
// than T+R+C — the structure of Table 7.
func TestStagedCompression(t *testing.T) {
	dict := toyDict(t)
	rb := flapRuleBase()
	msgs := table2Messages(t)

	count := func(cfg Config) int {
		g := newGrouper(t, dict, rb, cfg)
		res, err := g.Group(msgs)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Groups)
	}
	tOnly := count(Config{Stage: StageTemporal})
	tr := count(Config{Stage: StageTemporalRules})
	trc := count(Config{})
	if !(tOnly > tr && tr > trc) {
		t.Fatalf("staged groups T=%d T+R=%d T+R+C=%d, want strictly decreasing", tOnly, tr, trc)
	}
	if trc != 1 {
		t.Fatalf("full pipeline groups = %d, want 1", trc)
	}
}

func TestTemporalPassOnly(t *testing.T) {
	dict := toyDict(t)
	l1 := locdict.IntfLoc("r1", "Serial1/0.10/10:0")
	// Same template, same location, sub-second spacing: one group.
	var msgs []Message
	for i := 0; i < 6; i++ {
		msgs = append(msgs, Message{
			Seq: i, Time: t0.Add(time.Duration(i*500) * time.Millisecond),
			Router: "r1", Template: tLinkDown, Loc: l1,
		})
	}
	// A different location on the same router stays separate.
	msgs = append(msgs, Message{Seq: 6, Time: t0, Router: "r1", Template: tLinkDown, Loc: locdict.RouterLoc("r1")})
	g := newGrouper(t, dict, nil, Config{Stage: StageTemporal})
	res, err := g.Group(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2: %v", len(res.Groups), res.GroupOf)
	}
}

func TestRulePassRequiresSpatialMatch(t *testing.T) {
	dict := toyDict(t)
	rb := flapRuleBase()
	l1 := locdict.IntfLoc("r1", "Serial1/0.10/10:0")
	// Rule-connected templates at an unrelated location (slot 9 does not
	// exist; use a different fabricated interface) must not merge.
	other := locdict.IntfLoc("r1", "Serial9/0/1:0")
	msgs := []Message{
		{Seq: 0, Time: t0, Router: "r1", Template: tLinkDown, Loc: l1},
		{Seq: 1, Time: t0.Add(time.Second), Router: "r1", Template: tProtoDown, Loc: other},
	}
	g := newGrouper(t, dict, rb, Config{Stage: StageTemporalRules})
	res, err := g.Group(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("spatially unrelated messages merged: %v", res.GroupOf)
	}
	// Same pair at matching locations does merge.
	msgs[1].Loc = l1
	res, err = g.Group(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("rule-connected messages did not merge: %v", res.GroupOf)
	}
}

func TestRulePassRespectsWindow(t *testing.T) {
	dict := toyDict(t)
	rb := flapRuleBase()
	l1 := locdict.IntfLoc("r1", "Serial1/0.10/10:0")
	msgs := []Message{
		{Seq: 0, Time: t0, Router: "r1", Template: tLinkDown, Loc: l1},
		{Seq: 1, Time: t0.Add(10 * time.Minute), Router: "r1", Template: tProtoDown, Loc: l1},
	}
	g := newGrouper(t, dict, rb, Config{Stage: StageTemporalRules, RuleWindow: 2 * time.Minute})
	res, err := g.Group(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1+1 {
		t.Fatalf("messages outside W merged: %v", res.GroupOf)
	}
}

func TestCrossPassLinkEnds(t *testing.T) {
	dict := toyDict(t)
	l1 := locdict.IntfLoc("r1", "Serial1/0.10/10:0")
	l2 := locdict.IntfLoc("r2", "Serial1/0.20/20:0")
	msgs := []Message{
		{Seq: 0, Time: t0, Router: "r1", Template: tLinkDown, Loc: l1},
		{Seq: 1, Time: t0.Add(time.Second), Router: "r2", Template: tLinkDown, Loc: l2},
	}
	g := newGrouper(t, dict, nil, Config{})
	res, err := g.Group(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("link ends did not merge: %v", res.GroupOf)
	}
	// Beyond the cross window they stay apart.
	msgs[1].Time = t0.Add(5 * time.Second)
	res, err = g.Group(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("non-simultaneous link ends merged: %v", res.GroupOf)
	}
	// Different templates never cross-group.
	msgs[1].Time = t0
	msgs[1].Template = tProtoDown
	res, err = g.Group(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("different templates cross-grouped: %v", res.GroupOf)
	}
}

func TestCrossPassPeerHints(t *testing.T) {
	dict := toyDict(t)
	// Router-level BGP messages referencing each other via peer hints.
	msgs := []Message{
		{Seq: 0, Time: t0, Router: "r1", Template: 7, Loc: locdict.RouterLoc("r1"), Peers: []string{"r2"}},
		{Seq: 1, Time: t0, Router: "r2", Template: 7, Loc: locdict.RouterLoc("r2")},
	}
	g := newGrouper(t, dict, nil, Config{})
	res, err := g.Group(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("peer-hinted session ends did not merge: %v", res.GroupOf)
	}
}

func TestGroupSliceOrderInvariance(t *testing.T) {
	dict := toyDict(t)
	rb := flapRuleBase()
	msgs := table2Messages(t)
	rev := make([]Message, len(msgs))
	for i := range msgs {
		rev[len(msgs)-1-i] = msgs[i]
	}
	g := newGrouper(t, dict, rb, Config{})
	a, err := g.Group(msgs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Group(rev)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("group count differs by slice order: %d vs %d", len(a.Groups), len(b.Groups))
	}
	for seq := range a.GroupOf {
		for seq2 := range a.GroupOf {
			sameA := a.GroupOf[seq] == a.GroupOf[seq2]
			sameB := b.GroupOf[seq] == b.GroupOf[seq2]
			if sameA != sameB {
				t.Fatalf("partition differs for (%d, %d)", seq, seq2)
			}
		}
	}
}

func TestGroupErrors(t *testing.T) {
	dict := toyDict(t)
	if _, err := NewShardable(nil, nil, IncrementalConfig{Config: Config{Temporal: temporal.DefaultParams()}}); err == nil {
		t.Fatal("nil dictionary accepted")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"bad temporal params", Config{Temporal: temporal.Params{Alpha: -1}}},
		{"negative max scan", Config{MaxScan: -1000}},
		{"max scan above the cap", Config{MaxScan: maxScanLimit + 1}},
		{"unknown stage", Config{Stage: StageTemporalRules + 1}},
		{"negative stage", Config{Stage: -1}},
		{"negative rule window", Config{RuleWindow: -time.Second}},
		{"negative cross window", Config{CrossWindow: -time.Second}},
	} {
		if tc.cfg.Temporal == (temporal.Params{}) {
			tc.cfg.Temporal = temporal.DefaultParams()
		}
		if _, err := NewShardable(dict, nil, IncrementalConfig{Config: tc.cfg}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := NewShardable(dict, nil, IncrementalConfig{Config: Config{Temporal: temporal.DefaultParams(), MaxScan: maxScanLimit}}); err != nil {
		t.Errorf("max scan at the cap refused: %v", err)
	}
	g := newGrouper(t, dict, nil, Config{})
	if _, err := g.Group([]Message{{Seq: 5}}); err == nil {
		t.Fatal("sparse Seq accepted")
	}
}

func TestGroupEmpty(t *testing.T) {
	g := newGrouper(t, toyDict(t), nil, Config{})
	res, err := g.Group(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 || len(res.GroupOf) != 0 {
		t.Fatalf("empty result = %+v", res)
	}
}

func TestGroupIDsDense(t *testing.T) {
	g := newGrouper(t, toyDict(t), flapRuleBase(), Config{})
	res, err := g.Group(table2Messages(t))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, id := range res.GroupOf {
		if id < 0 || id >= len(res.Groups) {
			t.Fatalf("group id %d out of range", id)
		}
		seen[id] = true
	}
	if len(seen) != len(res.Groups) {
		t.Fatalf("ids not dense: %v", res.GroupOf)
	}
	for id, members := range res.Groups {
		for _, seq := range members {
			if res.GroupOf[seq] != id {
				t.Fatalf("group membership inconsistent at seq %d", seq)
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := newUnionFind(5)
	if !u.union(0, 1) || !u.union(1, 2) {
		t.Fatal("fresh unions should merge")
	}
	if u.union(0, 2) {
		t.Fatal("redundant union should report no merge")
	}
	if !u.same(0, 2) || u.same(0, 3) {
		t.Fatal("connectivity wrong")
	}
	u.union(3, 4)
	if u.same(2, 4) {
		t.Fatal("separate components merged")
	}
}

// TestPerPassMergeCounts checks the merge accounting invariant: every merge
// removes exactly one group, so the per-pass counts must sum to
// n - len(Groups), and each ablation stage must zero out the passes it
// disables (Table 7's T / R / C axes). One row per Stage.
func TestPerPassMergeCounts(t *testing.T) {
	msgs := table2Messages(t)
	for _, tc := range []struct {
		name    string
		stage   Stage
		noRule  bool
		noCross bool
	}{
		{name: "T", stage: StageTemporal, noRule: true, noCross: true},
		{name: "T+R", stage: StageTemporalRules, noCross: true},
		{name: "T+R+C", stage: StageFull},
	} {
		g := newGrouper(t, toyDict(t), flapRuleBase(), Config{Stage: tc.stage})
		res, err := g.Group(msgs)
		if err != nil {
			t.Fatal(err)
		}
		total := res.TemporalMerges + res.RuleMerges + res.CrossMerges
		if want := len(msgs) - len(res.Groups); total != want {
			t.Errorf("%s: merges %d (T=%d R=%d C=%d) != n - groups = %d",
				tc.name, total, res.TemporalMerges, res.RuleMerges, res.CrossMerges, want)
		}
		if tc.noRule && res.RuleMerges != 0 {
			t.Errorf("%s: rule merges %d on disabled pass", tc.name, res.RuleMerges)
		}
		if tc.noCross && res.CrossMerges != 0 {
			t.Errorf("%s: cross merges %d on disabled pass", tc.name, res.CrossMerges)
		}
	}
	// The zero Config runs all three passes: the full toy run must use the
	// rule and cross passes (the toy's 20s same-template spacing is beyond
	// Smin, so temporal contributes 0).
	g := newGrouper(t, toyDict(t), flapRuleBase(), Config{})
	res, err := g.Group(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleMerges == 0 || res.CrossMerges == 0 {
		t.Fatalf("expected rule and cross merges: T=%d R=%d C=%d",
			res.TemporalMerges, res.RuleMerges, res.CrossMerges)
	}
	// Rule merges must agree with the ActiveRules tally.
	active := 0
	for _, n := range res.ActiveRules {
		active += n
	}
	if active != res.RuleMerges {
		t.Fatalf("ActiveRules total %d != RuleMerges %d", active, res.RuleMerges)
	}
}

// TestTemporalMergeCount: a sub-Smin same-template burst merges in pass 1
// and is counted as temporal merges.
func TestTemporalMergeCount(t *testing.T) {
	l1 := locdict.IntfLoc("r1", "Serial1/0.10/10:0")
	var msgs []Message
	for i := 0; i < 5; i++ {
		msgs = append(msgs, Message{
			Seq: i, Time: t0.Add(time.Duration(i) * 500 * time.Millisecond),
			Router: "r1", Template: tLinkDown, Loc: l1,
		})
	}
	g := newGrouper(t, toyDict(t), nil, Config{Stage: StageTemporal})
	res, err := g.Group(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if res.TemporalMerges != 4 || len(res.Groups) != 1 {
		t.Fatalf("T=%d groups=%d, want 4 merges into 1 group", res.TemporalMerges, len(res.Groups))
	}
}
