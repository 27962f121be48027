package core

import (
	"fmt"
	"io"
	"sort"
)

// Report writes a human-readable audit of the knowledge base: parameters,
// learned templates (with any expert names), the rule set rendered against
// template patterns, and the chattiest signatures. This is the paper's
// "domain experts can be asked to comment on the associations" surface —
// what an operator reviews before adjusting anything.
func (kb *KnowledgeBase) Report(w io.Writer, topFreq int) error {
	if kb.matcher == nil {
		return fmt.Errorf("core: knowledge base not initialized")
	}
	p := kb.Params
	fmt.Fprintf(w, "parameters: alpha=%g beta=%g Smin=%s Smax=%s W=%s SPmin=%g Confmin=%g cross=%s\n",
		p.Temporal.Alpha, p.Temporal.Beta, p.Temporal.Smin, p.Temporal.Smax,
		p.Rules.Window, p.Rules.SPmin, p.Rules.ConfMin, p.CrossWindow)
	fmt.Fprintf(w, "inventory: %d templates, %d rules, %d routers, %d (router, template) frequencies\n\n",
		len(kb.Templates), kb.RuleBase.Len(), len(kb.Configs), kb.Freq.Len())

	name := make(map[int]string, len(kb.Templates))
	for _, t := range kb.Templates {
		name[t.ID] = t.String()
	}

	fmt.Fprintf(w, "templates (%d):\n", len(kb.Templates))
	sorted := append([]int(nil), templateIDs(kb)...)
	sort.Ints(sorted)
	for _, id := range sorted {
		line := fmt.Sprintf("  [%3d] %s", id, name[id])
		if n, ok := kb.ExpertNames[id]; ok {
			line += fmt.Sprintf("  (named %q)", n)
		}
		fmt.Fprintln(w, line)
	}

	rulesList := kb.RuleBase.Rules()
	fmt.Fprintf(w, "\nrules (%d directional):\n", len(rulesList))
	for _, r := range rulesList {
		fmt.Fprintf(w, "  conf=%.2f supp=%.5f  %s  =>  %s\n",
			r.Conf, r.Support, shorten(name[r.X]), shorten(name[r.Y]))
	}

	if topFreq > 0 {
		fmt.Fprintf(w, "\ntop %d signatures by historical frequency:\n", topFreq)
		entries := kb.Freq.Entries()
		sort.Slice(entries, func(i, j int) bool { return entries[i].Count > entries[j].Count })
		if topFreq > len(entries) {
			topFreq = len(entries)
		}
		for _, e := range entries[:topFreq] {
			fmt.Fprintf(w, "  %8d  %s  %s\n", e.Count, e.Router, shorten(name[e.Template]))
		}
	}
	return nil
}

func templateIDs(kb *KnowledgeBase) []int {
	out := make([]int, 0, len(kb.Templates))
	for _, t := range kb.Templates {
		out = append(out, t.ID)
	}
	return out
}

// shorten truncates long template strings for tabular output.
func shorten(s string) string {
	if s == "" {
		return "(unknown template)"
	}
	if len(s) > 72 {
		return s[:69] + "..."
	}
	return s
}

// RulesNarrative renders each undirected rule pair once with template
// names, the "comment on the associations" view.
func (kb *KnowledgeBase) RulesNarrative() []string {
	name := make(map[int]string, len(kb.Templates))
	for _, t := range kb.Templates {
		name[t.ID] = t.String()
	}
	var out []string
	for _, pk := range kb.RuleBase.Pairs() {
		out = append(out, fmt.Sprintf("%s <-> %s", shorten(name[pk.X]), shorten(name[pk.Y])))
	}
	sort.Strings(out)
	return out
}
