package core

import (
	"testing"
	"time"

	"syslogdigest/internal/gen"
	"syslogdigest/internal/par"
	"syslogdigest/internal/syslogmsg"
)

func TestRelearnKeepsTemplateIDs(t *testing.T) {
	kb, ds := mutableKB(t, gen.DatasetA)
	l := NewLearner(DefaultParams())

	byPattern := make(map[string]int)
	for _, tpl := range kb.Templates {
		byPattern[tpl.String()] = tpl.ID
	}
	rulesBefore := kb.RuleBase.Len()

	st, err := l.Relearn(kb, ds.Messages)
	if err != nil {
		t.Fatal(err)
	}
	// Same corpus: every pattern re-discovered, nothing new.
	if st.NewTemplates != 0 {
		t.Fatalf("self-relearn added templates: %+v", st)
	}
	if st.KeptTemplates == 0 {
		t.Fatalf("nothing kept: %+v", st)
	}
	for _, tpl := range kb.Templates {
		if id, ok := byPattern[tpl.String()]; ok && id != tpl.ID {
			t.Fatalf("template %q renumbered %d -> %d", tpl.String(), id, tpl.ID)
		}
	}
	if kb.RuleBase.Len() < rulesBefore {
		t.Fatalf("self-relearn shrank rules: %d -> %d", rulesBefore, kb.RuleBase.Len())
	}
}

func TestRelearnAddsNewFormats(t *testing.T) {
	kb, ds := mutableKB(t, gen.DatasetA)
	l := NewLearner(DefaultParams())

	before := len(kb.Templates)
	maxID := -1
	for _, tpl := range kb.Templates {
		if tpl.ID > maxID {
			maxID = tpl.ID
		}
	}

	// A new router OS starts emitting a format the base has never seen.
	period := append([]syslogmsg.Message(nil), ds.Messages[:500]...)
	t0 := period[len(period)-1].Time
	for i := 0; i < 40; i++ {
		period = append(period, syslogmsg.Message{
			Time: t0.Add(time.Duration(i) * time.Minute), Router: "ar001",
			Code:   "NEWFMT-4-WIDGET",
			Detail: "Widget 10.0.0.1 reported spin state inverted",
		})
	}
	st, err := l.Relearn(kb, period)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewTemplates == 0 {
		t.Fatalf("new format not learned: %+v", st)
	}
	if len(kb.Templates) <= before {
		t.Fatal("template inventory did not grow")
	}
	// The new template matches the new messages and got a fresh ID.
	tpl, ok := kb.Matcher().Match("NEWFMT-4-WIDGET", "Widget 10.9.9.9 reported spin state inverted")
	if !ok {
		t.Fatal("new format does not match after relearn")
	}
	if tpl.ID <= maxID {
		t.Fatalf("new template reused ID %d (max was %d)", tpl.ID, maxID)
	}
	// Retired templates (codes absent from the 500-message slice) are
	// retained, not dropped.
	if st.RetiredTemplates > 0 && len(kb.Templates) < before {
		t.Fatal("retired templates were dropped")
	}
}

func TestRelearnUninitialized(t *testing.T) {
	if _, err := NewLearner(DefaultParams()).Relearn(&KnowledgeBase{}, nil); err == nil {
		t.Fatal("uninitialized kb accepted")
	}
}

// TestAugmentWithPoolMatchesSerial: the pool fan-out Digest and Relearn
// augment through is order-preserving at any worker count (0: GOMAXPROCS).
func TestAugmentWithPoolMatchesSerial(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	msgs := ds.Messages[:3000]
	serial := kb.AugmentAll(msgs)
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got := kb.augmentWith(par.New(workers), msgs)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: length %d != %d", workers, len(got), len(serial))
		}
		for i := range serial {
			if got[i].Template != serial[i].Template || got[i].Loc != serial[i].Loc {
				t.Fatalf("workers=%d: message %d differs: %+v vs %+v", workers, i, got[i], serial[i])
			}
			if len(got[i].Peers) != len(serial[i].Peers) {
				t.Fatalf("workers=%d: message %d peers differ", workers, i)
			}
		}
	}
}

func TestAugmentWithPoolEmpty(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	if out := kb.augmentWith(par.New(4), nil); len(out) != 0 {
		t.Fatalf("empty input produced %d", len(out))
	}
}

func TestDigestLargeBatchUsesParallelPath(t *testing.T) {
	// Functional equivalence: digesting above and below the parallel
	// threshold must give identical events for identical input.
	kb, ds := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Messages) < 5000 {
		t.Skip("corpus too small")
	}
	batch := ds.Messages[:5000]
	res1, err := d.Digest(batch) // parallel path (>= 4096)
	if err != nil {
		t.Fatal(err)
	}
	plus := kb.AugmentAll(batch)
	res2, err := d.DigestPlus(plus) // serial path
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Events) != len(res2.Events) {
		t.Fatalf("parallel %d events != serial %d", len(res1.Events), len(res2.Events))
	}
	for i := range res1.Events {
		if res1.Events[i].Digest() != res2.Events[i].Digest() {
			t.Fatalf("event %d differs between paths", i)
		}
	}
}
