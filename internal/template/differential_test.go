package template_test

// Differential tests proving the interned matcher (MatchTokens) is a pure
// drop-in for the pre-interning string scan (linearMatcher below):
// identical (template, ok) on every input. The external test package lets
// these tests drive the matcher with internal/gen corpora (gen imports
// template, so an internal test would cycle).

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"syslogdigest/internal/gen"
	"syslogdigest/internal/template"
	"syslogdigest/internal/textutil"
)

// linearEntry is one template with its literal words.
type linearEntry struct {
	t    template.Template
	lits []string
}

// linearMatcher is the reference: per code, a full most-specific-first scan
// (more literal words first, then lower ID) comparing literal words as
// strings.
type linearMatcher map[string][]linearEntry

func newLinearMatcher(ts []template.Template) linearMatcher {
	ts = append([]template.Template(nil), ts...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	lm := linearMatcher{}
	for _, t := range ts {
		lm[t.Code] = append(lm[t.Code], linearEntry{t, t.Literals()})
	}
	for _, es := range lm {
		sort.SliceStable(es, func(i, j int) bool { return len(es[i].lits) > len(es[j].lits) })
	}
	return lm
}

func (lm linearMatcher) match(code string, toks []string) (template.Template, bool) {
	for _, e := range lm[code] {
		if matchesLiterals(e.lits, toks) {
			return e.t, true
		}
	}
	return template.Template{}, false
}

// matchesLiterals tests ordered containment of the literal words in toks.
func matchesLiterals(lits, toks []string) bool {
	k := 0
	for _, w := range toks {
		if k < len(lits) && w == lits[k] {
			k++
		}
	}
	return k == len(lits)
}

// diffCheck asserts both matcher implementations agree on one input.
func diffCheck(t *testing.T, m *template.Matcher, lm linearMatcher, code string, toks []string) {
	t.Helper()
	got, gok := m.MatchTokens(code, toks)
	want, wok := lm.match(code, toks)
	if gok != wok || got.ID != want.ID {
		t.Fatalf("matcher divergence on code=%q toks=%q:\n  interned: id=%d ok=%v\n  linear:   id=%d ok=%v",
			code, toks, got.ID, gok, want.ID, wok)
	}
}

// TestMatcherDifferentialCorpus replays full generated corpora — both
// vendors, multiple seeds — through both implementations.
func TestMatcherDifferentialCorpus(t *testing.T) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				ds, err := gen.Generate(gen.Spec{
					Kind: kind, Routers: 8, Seed: seed,
					Duration: 6 * time.Hour, RateScale: 0.5,
				})
				if err != nil {
					t.Fatal(err)
				}
				ts := template.Learn(ds.Messages, template.Options{})
				m, lm := template.NewMatcher(ts), newLinearMatcher(ts)
				for i := range ds.Messages {
					diffCheck(t, m, lm, ds.Messages[i].Code,
						textutil.Tokenize(ds.Messages[i].Detail))
				}
			})
		}
	}
}

// TestMatcherDifferentialRandom is a seeded property test over synthetic
// template sets: a code of learned size and one far larger than the
// learner's degree prune allows, with literal-free templates, duplicate
// literals, and out-of-vocabulary message tokens.
func TestMatcherDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := []string{
		"link", "down", "up", "state", "changed", "interface", "neighbor",
		"bgp", "peer", "reset", "flap", "error", "timeout", "retry",
		"adjacency", "lost", "line", "protocol", "on", "to", "from",
	}
	randWords := func(n int, maskOdds float64) []string {
		words := make([]string, n)
		for i := range words {
			if rng.Float64() < maskOdds {
				words[i] = textutil.Mask
			} else {
				words[i] = vocab[rng.Intn(len(vocab))]
			}
		}
		return words
	}

	var tmpls []template.Template
	id := 0
	add := func(code string, count int) {
		for i := 0; i < count; i++ {
			tmpls = append(tmpls, template.Template{
				ID: id, Code: code, Words: randWords(1+rng.Intn(6), 0.3),
			})
			id++
		}
		// A couple of literal-free templates per code: they match any
		// message, so the rarest-literal prune never skips them.
		for i := 0; i < 2; i++ {
			tmpls = append(tmpls, template.Template{
				ID: id, Code: code, Words: []string{textutil.Mask, textutil.Mask},
			})
			id++
		}
	}
	add("SMALL-5-CODE", 4) // a learned code's size
	add("BIG-3-CODE", 48)  // far above the degree prune
	m, lm := template.NewMatcher(tmpls), newLinearMatcher(tmpls)

	codes := []string{"SMALL-5-CODE", "BIG-3-CODE", "UNKNOWN-0-CODE"}
	outOfVocab := []string{"zzz", "0x1A2B", "Serial1/0", "10.0.0.1"}
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(10)
		toks := make([]string, n)
		for i := range toks {
			if rng.Float64() < 0.2 {
				toks[i] = outOfVocab[rng.Intn(len(outOfVocab))]
			} else {
				toks[i] = vocab[rng.Intn(len(vocab))]
			}
		}
		diffCheck(t, m, lm, codes[rng.Intn(len(codes))], toks)
	}
}
