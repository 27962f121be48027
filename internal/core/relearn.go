package core

import (
	"fmt"

	"syslogdigest/internal/rules"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/template"
)

// RelearnStats summarizes one periodic knowledge refresh.
type RelearnStats struct {
	// KeptTemplates are re-discovered patterns that kept their IDs.
	KeptTemplates int
	// NewTemplates got fresh IDs.
	NewTemplates int
	// RetiredTemplates were not re-discovered this period but are retained
	// (conservatively, like rules: their signatures may recur).
	RetiredTemplates int
	// Rules carries the rule-base update of the same period.
	Rules rules.UpdateStats
}

// Relearn refreshes the knowledge base from a new historical period while
// keeping template IDs stable: a template ID is the foreign key the rule
// base, frequency table, and any operator annotations hang off, so
// re-learning must not renumber surviving patterns. Re-discovered patterns
// keep their IDs; genuinely new patterns (new router OS, new message
// formats — the paper's motivating maintenance problem) are appended with
// fresh IDs; disappeared patterns are retained.
//
// The same period also refreshes signature frequencies and applies the
// conservative rule update.
func (l *Learner) Relearn(kb *KnowledgeBase, period []syslogmsg.Message) (RelearnStats, error) {
	var st RelearnStats
	if kb == nil || kb.matcher == nil {
		return st, fmt.Errorf("core: knowledge base not initialized")
	}
	topt, rcfg := l.stageOptions()
	fresh := template.Learn(period, topt)

	maxID := -1
	for _, t := range kb.Templates {
		if t.ID > maxID {
			maxID = t.ID
		}
	}
	seen := make(map[int]bool, len(kb.Templates))
	merged := append([]template.Template(nil), kb.Templates...)
	for _, nt := range fresh {
		matched := false
		for _, old := range kb.Templates {
			if old.Equal(nt) {
				matched = true
				seen[old.ID] = true
				break
			}
		}
		if matched {
			st.KeptTemplates++
			continue
		}
		maxID++
		nt.ID = maxID
		merged = append(merged, nt)
		st.NewTemplates++
	}
	st.RetiredTemplates = len(kb.Templates) - st.KeptTemplates
	kb.Templates = merged
	kb.matcher = template.NewMatcher(kb.Templates)
	// The matcher changed, so cached (router, code, detail) answers are
	// stale; flush, and re-point the new matcher at the registry.
	kb.resetMatchCache()
	if kb.reg != nil {
		kb.matcher.Instrument(kb.reg)
	}

	// Refresh frequencies and rules with the period's augmented view.
	plus := kb.AugmentAll(period)
	for i := range plus {
		kb.Freq.Add(plus[i].Router, plus[i].Template, 1)
	}
	res, err := rules.Mine(RuleEvents(plus), rcfg)
	if err != nil {
		return st, fmt.Errorf("core: rule mining: %w", err)
	}
	st.Rules = kb.RuleBase.Update(res)
	return st, nil
}
