package core

import (
	"testing"
	"time"

	"syslogdigest/internal/gen"
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
