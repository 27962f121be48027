// Package rules implements the paper's template-relationship learning
// (§4.1.4): pairwise association-rule mining over router syslog streams.
//
// Transactions are built with a sliding window: messages are sorted in time
// per router, and for each message the set of distinct templates appearing
// within the next W seconds forms one transaction. An association rule
// X ⇒ Y is kept when X's item support meets SPmin and conf(X ⇒ Y) =
// supp(X∧Y)/supp(X) meets Confmin. Only pairs are mined (|X| = |Y| = 1),
// exactly as in the paper: cheap to compute, easy for a domain expert to
// audit, and transitive closure during grouping recovers larger clusters.
//
// RuleBase holds the evolving rule set and applies the paper's conservative
// weekly update: new qualifying rules are added; an existing rule is deleted
// only when the period's data actively contradicts it (its confidence is
// re-measurable and falls below threshold) — a rule whose antecedent simply
// didn't occur this period survives, since "it is quite possible X becomes
// common again soon".
package rules

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"syslogdigest/internal/par"
)

// Event is the minimal view of an augmented syslog message that mining
// needs: when, where (router), and which template.
type Event struct {
	Time     time.Time
	Router   string
	Template int
}

// Config tunes mining.
type Config struct {
	// Window is W, the sliding transaction window. Zero defaults to 120s
	// (the paper's dataset-A setting).
	Window time.Duration
	// SPmin is the minimum item support (fraction of transactions that
	// contain the template) for a template to participate in rules. Zero
	// defaults to 0.0005.
	SPmin float64
	// ConfMin is the minimum rule confidence. Zero defaults to 0.8.
	ConfMin float64
	// MaxItemsPerTx caps the distinct templates considered in one
	// transaction; message storms otherwise make pair enumeration
	// quadratic in storm size. Zero defaults to 64.
	MaxItemsPerTx int
	// MinEvidence is the minimum number of transactions containing X this
	// period for conf(X ⇒ Y) to be considered re-measured (used by
	// RuleBase deletion). Zero defaults to 5.
	MinEvidence int
}

func (c Config) normalize() (Config, error) {
	if c.Window == 0 {
		c.Window = 120 * time.Second
	}
	if c.Window < 0 {
		return c, fmt.Errorf("rules: negative window %v", c.Window)
	}
	if c.SPmin == 0 {
		c.SPmin = 0.0005
	}
	if c.SPmin < 0 || c.SPmin > 1 {
		return c, fmt.Errorf("rules: SPmin %v out of [0,1]", c.SPmin)
	}
	if c.ConfMin == 0 {
		c.ConfMin = 0.8
	}
	if c.ConfMin < 0 || c.ConfMin > 1 {
		return c, fmt.Errorf("rules: ConfMin %v out of [0,1]", c.ConfMin)
	}
	if c.MaxItemsPerTx == 0 {
		c.MaxItemsPerTx = 64
	}
	if c.MaxItemsPerTx < 0 {
		return c, fmt.Errorf("rules: negative MaxItemsPerTx %d", c.MaxItemsPerTx)
	}
	if c.MinEvidence == 0 {
		c.MinEvidence = 5
	}
	if c.MinEvidence < 0 {
		return c, fmt.Errorf("rules: negative MinEvidence %d", c.MinEvidence)
	}
	return c, nil
}

// Rule is one directional association rule X ⇒ Y between two template IDs.
type Rule struct {
	X, Y    int
	Support float64 // supp(X ∧ Y): fraction of transactions containing both
	Conf    float64 // supp(X ∧ Y) / supp(X)
}

// PairKey identifies the directional pair (X, Y).
type PairKey struct{ X, Y int }

// Result carries everything one mining run produced: the qualifying rules
// plus the raw statistics RuleBase needs for conservative updates.
type Result struct {
	Transactions int
	// ItemTx counts transactions containing each template.
	ItemTx map[int]int
	// PairTx counts transactions containing each unordered pair; keys are
	// canonical with X < Y.
	PairTx map[PairKey]int
	// Rules are the directional rules meeting SPmin and ConfMin, sorted by
	// (X, Y) for determinism.
	Rules []Rule
	cfg   Config
}

// Mine builds transactions from events (any order; sorted internally per
// router) and mines pairwise rules. Routers are partitioned across par's
// GOMAXPROCS workers, each counting into a private tally; the tallies are
// merged afterwards. Transaction counts are additive across routers, so
// the result is identical to a serial pass at any worker count.
func Mine(events []Event, cfg Config) (*Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	byRouter := make(map[string][]Event)
	for _, e := range events {
		byRouter[e.Router] = append(byRouter[e.Router], e)
	}
	routers := make([]string, 0, len(byRouter))
	for r := range byRouter {
		routers = append(routers, r)
	}
	sort.Strings(routers)

	shards := par.Ranges(len(routers), par.Workers())
	partials, _ := par.Map(len(shards), func(i int) (*Result, error) {
		part := &Result{
			ItemTx: make(map[int]int),
			PairTx: make(map[PairKey]int),
			cfg:    cfg,
		}
		t := newTally()
		for _, r := range routers[shards[i][0]:shards[i][1]] {
			stream := byRouter[r]
			sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time.Before(stream[j].Time) })
			t.mineStream(stream, cfg)
		}
		t.fold(part)
		return part, nil
	})

	var res *Result
	if len(partials) == 1 {
		res = partials[0]
	} else {
		res = &Result{
			ItemTx: make(map[int]int),
			PairTx: make(map[PairKey]int),
			cfg:    cfg,
		}
		for _, part := range partials {
			res.Transactions += part.Transactions
			for t, n := range part.ItemTx {
				res.ItemTx[t] += n
			}
			for pk, n := range part.PairTx {
				res.PairTx[pk] += n
			}
		}
	}

	res.Rules = res.rulesFromStats()
	return res, nil
}

// tally is one worker's mining counts over dense template IDs, numbered in
// order of first sight: the per-transaction distinct set is a generation
// stamp per ID, item counts are a slice, and a pair is one packed uint64
// map key (a dense D×D table would have no memory bound when templates are
// many). fold adds the counts into a Result's template-keyed maps once the
// worker is done.
type tally struct {
	ids          map[int]int32 // template -> dense ID
	templates    []int         // dense ID -> template
	itemTx       []int         // transactions containing each dense ID
	seen         []uint32      // seen[d] == gen: d is in the current transaction
	gen          uint32
	pairTx       map[uint64]int // packPair(x, y) -> transactions containing both
	transactions int

	dense, items []int32 // reused buffers: a stream's IDs, a transaction's distinct IDs
}

func newTally() *tally {
	return &tally{ids: make(map[int]int32), pairTx: make(map[uint64]int)}
}

// id returns the template's dense ID, numbering it on first sight.
func (t *tally) id(template int) int32 {
	if d, ok := t.ids[template]; ok {
		return d
	}
	d := int32(len(t.templates))
	t.ids[template] = d
	t.templates = append(t.templates, template)
	t.itemTx = append(t.itemTx, 0)
	t.seen = append(t.seen, 0)
	return d
}

// packPair keys the unordered pair of dense IDs x != y.
func packPair(x, y int32) uint64 {
	if x > y {
		x, y = y, x
	}
	return uint64(x)<<32 | uint64(y)
}

// mineStream slides a window over one router's sorted events, counting one
// transaction per message: the distinct templates in the next W, capped at
// cfg.MaxItemsPerTx in order of first appearance.
func (t *tally) mineStream(stream []Event, cfg Config) {
	t.dense = t.dense[:0]
	for i := range stream {
		t.dense = append(t.dense, t.id(stream[i].Template))
	}
	j := 0
	for i := range stream {
		deadline := stream[i].Time.Add(cfg.Window)
		if j < i {
			j = i
		}
		for j < len(stream) && !stream[j].Time.After(deadline) {
			j++
		}
		if t.gen++; t.gen == 0 {
			clear(t.seen)
			t.gen = 1
		}
		items := t.items[:0]
		for _, d := range t.dense[i:j] {
			if len(items) == cfg.MaxItemsPerTx {
				break
			}
			if t.seen[d] != t.gen {
				t.seen[d] = t.gen
				items = append(items, d)
			}
		}
		t.items = items
		t.transactions++
		for a, x := range items {
			t.itemTx[x]++
			for _, y := range items[a+1:] {
				t.pairTx[packPair(x, y)]++
			}
		}
	}
}

// fold adds the tally into res under template IDs, pairs canonical X < Y.
// Every numbered template has a count: its own message's transaction
// starts with it.
func (t *tally) fold(res *Result) {
	res.Transactions += t.transactions
	for d, n := range t.itemTx {
		res.ItemTx[t.templates[d]] += n
	}
	for k, n := range t.pairTx {
		x, y := t.templates[k>>32], t.templates[uint32(k)]
		if x > y {
			x, y = y, x
		}
		res.PairTx[PairKey{x, y}] += n
	}
}

// rulesFromStats derives the qualifying directional rules from counts.
func (r *Result) rulesFromStats() []Rule {
	if r.Transactions == 0 {
		return nil
	}
	n := float64(r.Transactions)
	var out []Rule
	for pk, both := range r.PairTx {
		supp := float64(both) / n
		for _, dir := range [2]PairKey{{pk.X, pk.Y}, {pk.Y, pk.X}} {
			suppX := float64(r.ItemTx[dir.X]) / n
			if suppX < r.cfg.SPmin || suppX == 0 {
				continue
			}
			conf := supp / suppX
			if conf >= r.cfg.ConfMin {
				out = append(out, Rule{X: dir.X, Y: dir.Y, Support: supp, Conf: conf})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

// Conf returns this period's measured confidence for X ⇒ Y and whether it
// is re-measurable (X occurred in at least MinEvidence transactions).
func (r *Result) Conf(x, y int) (conf float64, measurable bool) {
	if r.ItemTx[x] < r.cfg.MinEvidence {
		return 0, false
	}
	px, py := x, y
	if px > py {
		px, py = py, px
	}
	both := r.PairTx[PairKey{px, py}]
	return float64(both) / float64(r.ItemTx[x]), true
}

// RuleBase is the evolving rule knowledge base.
//
// Alongside the directional rule map it keeps one derived index: a sorted
// partner list per template, holding every template it rule-pairs with in
// either direction. Grouping enumerates exactly those templates (Partners),
// which is what turns the rule-window scan into a bucket lookup, and
// HasPair is a binary search of one list. The index is maintained eagerly
// on every mutation — never lazily — so read-only use from concurrent
// shard goroutines stays race-free.
type RuleBase struct {
	rules    map[PairKey]Rule
	partners map[int][]int // template -> ascending rule partners (either direction)
}

// NewRuleBase returns an empty rule base.
func NewRuleBase() *RuleBase {
	return &RuleBase{
		rules:    make(map[PairKey]Rule),
		partners: make(map[int][]int),
	}
}

// Len returns the number of directional rules.
func (rb *RuleBase) Len() int { return len(rb.rules) }

// Add inserts or replaces one rule directly. Normal operation goes through
// Update; Add exists for loading a serialized knowledge base and for the
// optional expert adjustment the paper mentions (a domain expert may insert
// or correct rules by hand). The partner lists update incrementally —
// O(partners) — so loading a serialized base rule by rule stays linear.
func (rb *RuleBase) Add(r Rule) {
	rb.rules[PairKey{r.X, r.Y}] = r
	rb.link(r.X, r.Y)
}

// Remove deletes one directional rule, reporting whether it existed. The
// expert-adjustment counterpart of Add.
func (rb *RuleBase) Remove(x, y int) bool {
	k := PairKey{x, y}
	if _, ok := rb.rules[k]; !ok {
		return false
	}
	delete(rb.rules, k)
	// The unordered pair survives while the opposite direction remains.
	if _, ok := rb.rules[PairKey{y, x}]; !ok {
		removeSorted(rb.partners, x, y)
		removeSorted(rb.partners, y, x)
	}
	return true
}

// Has reports whether the directional rule X ⇒ Y is present.
func (rb *RuleBase) Has(x, y int) bool {
	_, ok := rb.rules[PairKey{x, y}]
	return ok
}

// HasPair reports whether either direction between the two templates is
// present — grouping ignores rule direction (§4.2.2).
func (rb *RuleBase) HasPair(x, y int) bool {
	_, ok := slices.BinarySearch(rb.partners[x], y)
	return ok
}

// Partners returns the templates that rule-pair with t (either direction),
// ascending. The returned slice is the base's internal index — callers
// must not modify it, and must not retain it across a mutation.
func (rb *RuleBase) Partners(t int) []int { return rb.partners[t] }

// link records the unordered pair (x, y) in both partner lists; idempotent.
func (rb *RuleBase) link(x, y int) {
	insertSorted(rb.partners, x, y)
	insertSorted(rb.partners, y, x)
}

// reindex rebuilds the partner lists from the rule map.
func (rb *RuleBase) reindex() {
	rb.partners = make(map[int][]int)
	for k := range rb.rules {
		rb.link(k.X, k.Y)
	}
}

// insertSorted adds v to m[key]'s ascending list if absent.
func insertSorted(m map[int][]int, key, v int) {
	if i, ok := slices.BinarySearch(m[key], v); !ok {
		m[key] = slices.Insert(m[key], i, v)
	}
}

// removeSorted drops v from m[key]'s ascending list if present, deleting
// the key once empty.
func removeSorted(m map[int][]int, key, v int) {
	s := m[key]
	i, ok := slices.BinarySearch(s, v)
	switch {
	case !ok:
	case len(s) == 1:
		delete(m, key)
	default:
		m[key] = slices.Delete(s, i, i+1)
	}
}

// Rules returns all rules sorted by (X, Y).
func (rb *RuleBase) Rules() []Rule {
	out := make([]Rule, 0, len(rb.rules))
	for _, r := range rb.rules {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

// Pairs returns the distinct unordered template pairs covered by the base,
// canonical X <= Y, sorted.
func (rb *RuleBase) Pairs() []PairKey {
	var out []PairKey
	for x, ps := range rb.partners {
		for _, y := range ps {
			if x <= y {
				out = append(out, PairKey{x, y})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

// UpdateStats summarizes one periodic update.
type UpdateStats struct {
	Added, Deleted, Total int
}

// Update applies one period's mining result: qualifying rules are added,
// and existing rules whose re-measured confidence falls below ConfMin are
// deleted. A rule whose antecedent lacked evidence this period is kept.
func (rb *RuleBase) Update(res *Result) UpdateStats {
	var st UpdateStats
	for _, r := range res.Rules {
		k := PairKey{r.X, r.Y}
		if _, ok := rb.rules[k]; !ok {
			st.Added++
		}
		rb.rules[k] = r // refresh stats even when already present
	}
	for k := range rb.rules {
		conf, measurable := res.Conf(k.X, k.Y)
		if measurable && conf < res.cfg.ConfMin {
			delete(rb.rules, k)
			st.Deleted++
		}
	}
	// A batch of adds and deletes may have touched many pairs; rebuild the
	// partner lists wholesale rather than tracking the delta per deletion.
	rb.reindex()
	st.Total = len(rb.rules)
	return st
}

// SupportProfile describes, for a given SPmin, which share of template
// types qualifies for mining and what fraction of raw messages those types
// cover — the two columns of the paper's Table 5.
type SupportProfile struct {
	SPmin         float64
	TopTypePct    float64 // fraction of template types with support >= SPmin
	CoveragePct   float64 // fraction of messages carried by those types
	TypesTotal    int
	TypesEligible int
}

// Profile computes the Table 5 row for one SPmin over a mining result plus
// per-template raw message counts.
func (r *Result) Profile(spmin float64, msgCount map[int]int) SupportProfile {
	p := SupportProfile{SPmin: spmin}
	if r.Transactions == 0 || len(msgCount) == 0 {
		return p
	}
	n := float64(r.Transactions)
	var covered, total int
	for t, c := range msgCount {
		total += c
		p.TypesTotal++
		if float64(r.ItemTx[t])/n >= spmin {
			p.TypesEligible++
			covered += c
		}
	}
	if p.TypesTotal > 0 {
		p.TopTypePct = float64(p.TypesEligible) / float64(p.TypesTotal)
	}
	if total > 0 {
		p.CoveragePct = float64(covered) / float64(total)
	}
	return p
}
