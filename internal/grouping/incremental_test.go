package grouping

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"syslogdigest/internal/locdict"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/temporal"
)

// serial is the tests' single-threaded composition of the two halves —
// one RouterLocal and one Merger stepped inline, as the serial streaming
// engine steps them — snapshotting and restoring through the one path every
// engine shape takes (CaptureLocal + CaptureParts, RestoreParts).
type serial struct {
	s     *Shardable
	local *RouterLocal
	merge *Merger
	js    Joins
}

func newSerial(t *testing.T, cfg Config) *serial {
	t.Helper()
	if cfg.Temporal == (temporal.Params{}) {
		cfg.Temporal = temporal.DefaultParams()
	}
	return newSerialWith(t, toyDict(t), flapRuleBase(), IncrementalConfig{Config: cfg})
}

func newSerialWith(tb testing.TB, dict *locdict.Dictionary, rb *rules.RuleBase, cfg IncrementalConfig) *serial {
	tb.Helper()
	s, err := NewShardable(dict, rb, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return &serial{s: s, local: s.NewLocal(0), merge: s.NewMerger()}
}

// Observe steps one message through both halves and returns the groups it
// closed (scratch, valid until the next step).
func (c *serial) Observe(m Message) ([]ClosedGroup, error) {
	if err := c.merge.Progress().Check(m.Time); err != nil {
		return nil, err
	}
	p := c.s.pool.Get(m)
	if err := c.local.Step(p, &c.js); err != nil {
		p.Release()
		return nil, err
	}
	closed, err := c.merge.Apply(p, &c.js)
	if err != nil {
		p.Release()
		return nil, err
	}
	return closed, nil
}

// Drain closes every open group and clears the join windows.
func (c *serial) Drain() []ClosedGroup {
	out := c.merge.Drain()
	c.local.DrainWindows()
	return out
}

func (c *serial) Stats() IncStats { return SumStats(c.merge.Stats(), c.local.Stats()) }

func (c *serial) State(tb testing.TB) IncState {
	return captureParts(tb, []*RouterLocal{c.local}, c.merge)
}

// restoreSerial loads st into a fresh composition over the toy knowledge.
func restoreSerial(t *testing.T, cfg IncrementalConfig, st IncState) (*serial, error) {
	t.Helper()
	c := newSerialWith(t, toyDict(t), flapRuleBase(), cfg)
	locals, mg, err := c.s.RestoreParts(st, 1, 0, nil)
	if err != nil {
		return nil, err
	}
	c.local, c.merge = locals[0], mg
	return c, nil
}

// canonical reduces a partition to sorted member lists sorted by first
// member, the order-free form both paths must agree on.
func canonical(groups [][]int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = append([]int(nil), g...)
		sort.Ints(out[i])
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// closedToGroups converts drained ClosedGroups into member-seq lists.
func closedToGroups(closed []ClosedGroup) [][]int {
	out := make([][]int, len(closed))
	for i, cg := range closed {
		for _, m := range cg.Members {
			out[i] = append(out[i], m.Seq)
		}
	}
	return out
}

// feedSorted runs a batch through the serial composition in time order
// (ties by Seq, matching the batch grouper's sort) and returns every group.
func feedSorted(t *testing.T, inc *serial, batch []Message) [][]int {
	t.Helper()
	sorted := append([]Message(nil), batch...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if !sorted[i].Time.Equal(sorted[j].Time) {
			return sorted[i].Time.Before(sorted[j].Time)
		}
		return sorted[i].Seq < sorted[j].Seq
	})
	var closed []ClosedGroup
	for i := range sorted {
		cgs, err := inc.Observe(sorted[i])
		if err != nil {
			t.Fatalf("observe: %v", err)
		}
		closed = append(closed, cgs...)
	}
	closed = append(closed, inc.Drain()...)
	return closedToGroups(closed)
}

// TestIncrementalMatchesBatchQuick is the unit-level differential: over
// randomized batches, the incremental grouper fed in time order must emit
// exactly the batch grouper's partition, with the same temporal merge count
// and the same total merge count.
func TestIncrementalMatchesBatchQuick(t *testing.T) {
	dict := toyDict(t)
	rb := flapRuleBase()

	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%64) + 1
		batch := randomBatch(rng, n)

		g := newGrouper(t, dict, rb, Config{})
		want, err := g.Group(batch)
		if err != nil {
			return false
		}

		inc := newSerial(t, Config{})
		got := feedSorted(t, inc, batch)

		a, b := canonical(got), canonical(want.Groups)
		if len(a) != len(b) {
			t.Logf("seed %d n %d: %d groups vs %d", seed, n, len(a), len(b))
			return false
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		st := inc.Stats()
		if st.TemporalMerges != want.TemporalMerges {
			t.Logf("seed %d: temporal merges %d vs %d", seed, st.TemporalMerges, want.TemporalMerges)
			return false
		}
		// Rule/cross split is order-dependent (batch pass order is itself
		// arbitrary across equal partitions), but the total is pinned by the
		// partition: every merge removes one group.
		if got, want := st.TemporalMerges+st.RuleMerges+st.CrossMerges, n-len(b); got != want {
			t.Logf("seed %d: merge total %d vs %d", seed, got, want)
			return false
		}
		if st.OpenMessages != 0 || st.OpenGroups != 0 {
			t.Logf("seed %d: open state after drain: %+v", seed, st)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalRejectsRegression: feeding a message older than the
// watermark is a contract violation (the caller owns reordering).
func TestIncrementalRejectsRegression(t *testing.T) {
	inc := newSerial(t, Config{})
	base := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	m := Message{Seq: 0, Time: base, Router: "r1", Template: 1}
	if _, err := inc.Observe(m); err != nil {
		t.Fatal(err)
	}
	back := Message{Seq: 1, Time: base.Add(-time.Second), Router: "r1", Template: 1}
	if _, err := inc.Observe(back); err == nil {
		t.Fatal("regression accepted")
	}
	if wm := inc.merge.Progress().Time(); !wm.Equal(base) {
		t.Fatalf("the refused message moved the watermark to %v", wm)
	}
	// Equal-to-watermark is fine.
	same := Message{Seq: 2, Time: base, Router: "r1", Template: 1}
	if _, err := inc.Observe(same); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalClosesBehindWatermark: once the feed advances past the
// horizon, earlier groups emit without a drain.
func TestIncrementalClosesBehindWatermark(t *testing.T) {
	inc := newSerial(t, Config{})
	base := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		m := Message{Seq: i, Time: base.Add(time.Duration(i) * time.Second), Router: "r1", Template: 1}
		if cgs, err := inc.Observe(m); err != nil || len(cgs) != 0 {
			t.Fatalf("premature close: %v %v", cgs, err)
		}
	}
	// The group's last member is at base+2s; closure needs the watermark
	// strictly more than a horizon past it.
	far := Message{Seq: 3, Time: base.Add(inc.merge.horizon + 3*time.Second), Router: "r2", Template: 2}
	cgs, err := inc.Observe(far)
	if err != nil {
		t.Fatal(err)
	}
	if len(cgs) != 1 || len(cgs[0].Members) != 3 {
		t.Fatalf("closed %v, want one 3-member group", closedToGroups(cgs))
	}
	for i, m := range cgs[0].Members {
		if m.Seq != i {
			t.Fatalf("members out of Seq order: %v", closedToGroups(cgs))
		}
	}
	if st := inc.Stats(); st.OpenMessages != 1 || st.OpenGroups != 1 {
		t.Fatalf("open state %+v, want the far message only", st)
	}
}

// TestIncrementalDrainResets: Drain closes everything and leaves no open
// state, but keeps the watermark (a later regression still errors).
func TestIncrementalDrainResets(t *testing.T) {
	inc := newSerial(t, Config{})
	base := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		m := Message{Seq: i, Time: base.Add(time.Duration(i) * time.Minute), Router: "r1", Template: 1 + i%2}
		if _, err := inc.Observe(m); err != nil {
			t.Fatal(err)
		}
	}
	closed := inc.Drain()
	total := 0
	for _, cg := range closed {
		total += len(cg.Members)
	}
	if total != 5 {
		t.Fatalf("drained %d members, want 5", total)
	}
	if st := inc.Stats(); st.OpenMessages != 0 || st.OpenGroups != 0 {
		t.Fatalf("open state after drain: %+v", st)
	}
	if _, err := inc.Observe(Message{Seq: 5, Time: base, Router: "r1", Template: 1}); err == nil {
		t.Fatal("watermark lost across drain")
	}
}
