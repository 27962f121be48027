// Package grouping implements the paper's three online grouping methods
// (§4.2) that turn a stream of augmented (Syslog+) messages into candidate
// network events:
//
//   - temporal grouping (§4.2.1): messages with the same template at the
//     same location whose interarrivals follow the learned temporal pattern
//     join one group;
//   - rule-based grouping (§4.2.2): messages with *different* templates on
//     the same router join when an association rule connects their
//     templates, they fall within the mining window W, and their locations
//     spatially match; rule direction is ignored;
//   - cross-router grouping (§4.2.3): messages with the same template on
//     connected locations of *different* routers (two ends of a link,
//     session, or path) join when nearly simultaneous (≤1s by default).
//
// All three passes emit merges into one union-find, so — as the paper
// argues — the order of application cannot change the final partition.
// Every message starts as its own singleton group; a group is an event.
package grouping

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"syslogdigest/internal/locdict"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/temporal"
)

// Message is one augmented (Syslog+) message as grouping sees it: the raw
// fields that matter plus template and location annotations.
type Message struct {
	Seq      int // caller-assigned position in the batch, 0-based and dense
	Time     time.Time
	Router   string
	Template int
	Loc      locdict.Location   // primary (finest) location
	AllLocs  []locdict.Location // all resolved locations, finest first
	Peers    []string           // peer routers referenced by the message
	Raw      uint64             // caller-carried raw syslog index, opaque to grouping
}

// Stage selects which grouping passes run (the Table 7 ablation). The
// zero value runs all three.
type Stage int

const (
	// StageFull runs temporal, rule-based and cross-router grouping (T+R+C).
	StageFull Stage = iota
	// StageTemporal runs temporal grouping only (T).
	StageTemporal
	// StageTemporalRules adds rule-based grouping (T+R).
	StageTemporalRules
)

// maxScanLimit is a sanity cap on Config.MaxScan, far above any in use (the
// storm experiments scan 4096): a Hello cannot size a scan bitmap at will.
const maxScanLimit = 1 << 20

// Config tunes the grouping passes. Every layer carries it as is, a cluster
// Hello included (durations travel as nanoseconds).
type Config struct {
	// Temporal are the EWMA parameters for pass 1.
	Temporal temporal.Params `json:"temporal"`
	// RuleWindow is W for pass 2; messages further apart than this never
	// rule-group. Zero defaults to 120s.
	RuleWindow time.Duration `json:"rule_window"`
	// CrossWindow is the near-simultaneity bound for pass 3. Zero
	// defaults to 1s.
	CrossWindow time.Duration `json:"cross_window"`
	// MaxScan caps how many following messages one message is compared
	// against within a window, bounding worst-case storm cost. Zero
	// defaults to 256.
	MaxScan int `json:"max_scan"`
	// Stage selects the passes that run; the zero value runs all three.
	Stage Stage `json:"stage,omitempty"`
	// linearScan turns off the template-indexed candidate lookup in the
	// incremental rule and cross windows (RouterLocal, Merger), forcing the
	// original O(window) scans; the batch reference always scans linearly.
	// Output is byte-identical either way; the scans are kept as the
	// reference this package's differential tests compare the index against,
	// and being unexported the field can be set only from those tests
	// (external test packages go through LinearReference in export_test.go).
	linearScan bool
}

// normalize validates the configuration and fills its defaults, before any
// state is sized from it.
func (c Config) normalize() (Config, error) {
	if _, err := temporal.NewGrouper(c.Temporal); err != nil {
		return c, err
	}
	if c.Stage < StageFull || c.Stage > StageTemporalRules {
		return c, fmt.Errorf("grouping: unknown stage %d", c.Stage)
	}
	if c.RuleWindow < 0 || c.CrossWindow < 0 {
		return c, fmt.Errorf("grouping: negative window (rule %v, cross %v)", c.RuleWindow, c.CrossWindow)
	}
	if c.MaxScan < 0 || c.MaxScan > maxScanLimit {
		return c, fmt.Errorf("grouping: max scan %d outside [0, %d]", c.MaxScan, maxScanLimit)
	}
	if c.RuleWindow == 0 {
		c.RuleWindow = 120 * time.Second
	}
	if c.CrossWindow == 0 {
		c.CrossWindow = time.Second
	}
	if c.MaxScan == 0 {
		c.MaxScan = 256
	}
	return c, nil
}

func (c Config) useRules() bool { return c.Stage != StageTemporal }
func (c Config) useCross() bool { return c.Stage == StageFull }

// Result is the grouped partition of one batch.
type Result struct {
	// GroupOf maps message Seq to a dense group id; ids are ordered by
	// each group's earliest message Seq.
	GroupOf []int
	// Groups lists message Seqs per group id, each ascending.
	Groups [][]int
	// ActiveRules counts, per unordered template pair, how many rule-based
	// merges actually fired (the "active rules" of Figure 12).
	ActiveRules map[rules.PairKey]int
	// TemporalMerges, RuleMerges, and CrossMerges count the union-find
	// merges each pass contributed (Table 7's T / R / C axes). Their sum is
	// len(GroupOf) - len(Groups): every merge removes exactly one group.
	TemporalMerges int
	RuleMerges     int
	CrossMerges    int
}

// Group is the batch reference: it partitions a batch of messages into
// events with the three passes over one union-find. Messages must carry
// dense Seq values 0..len-1 (any order in the slice).
func (s *Shardable) Group(msgs []Message) (*Result, error) {
	n := len(msgs)
	for i := range msgs {
		if msgs[i].Seq < 0 || msgs[i].Seq >= n {
			return nil, fmt.Errorf("grouping: message %d has Seq %d outside [0, %d)", i, msgs[i].Seq, n)
		}
	}
	uf := newUnionFind(n)
	res := &Result{ActiveRules: make(map[rules.PairKey]int)}

	// One time-sorted view is shared by passes 2 and 3.
	byTime := make([]*Message, n)
	for i := range msgs {
		byTime[i] = &msgs[i]
	}
	sort.SliceStable(byTime, func(i, j int) bool {
		if !byTime[i].Time.Equal(byTime[j].Time) {
			return byTime[i].Time.Before(byTime[j].Time)
		}
		return byTime[i].Seq < byTime[j].Seq
	})

	if err := s.temporalPass(byTime, uf, &res.TemporalMerges); err != nil {
		return nil, err
	}
	if s.cfg.useRules() {
		s.rulePass(byTime, uf, res.ActiveRules, &res.RuleMerges)
	}
	if s.cfg.useCross() {
		s.crossPass(byTime, uf, &res.CrossMerges)
	}

	finalize(msgs, uf, res)
	return res, nil
}

// temporalPass runs the learned interarrival model per (template, location)
// stream, merging consecutive same-group messages. Streams are visited in
// first-appearance order; each has its own EWMA state and its merges only
// ever join messages of that stream.
func (s *Shardable) temporalPass(byTime []*Message, uf *unionFind, merges *int) error {
	type streamKey struct {
		template int
		loc      string
	}
	streams := make(map[streamKey][]*Message)
	var keys []streamKey
	for _, m := range byTime {
		key := streamKey{m.Template, m.Loc.Key()}
		if _, ok := streams[key]; !ok {
			keys = append(keys, key)
		}
		streams[key] = append(streams[key], m)
	}
	for _, key := range keys {
		tg, err := temporal.NewGrouper(s.cfg.Temporal)
		if err != nil {
			return err
		}
		last := -1
		for _, m := range streams[key] {
			if tg.Observe(m.Time) && uf.union(last, m.Seq) {
				*merges++
			}
			last = m.Seq
		}
	}
	return nil
}

// rulePass scans each router's time-ordered messages with window W and
// merges rule-connected, spatially-matched pairs: for each message, every
// following message within W and MaxScan positions is examined. Routers
// iterate in sorted order — map order would make the ActiveRules tallies
// depend on the run (per-router merge sets are disjoint at this stage, but
// the iteration order of a map is still nondeterministic state to build on).
func (s *Shardable) rulePass(byTime []*Message, uf *unionFind, active map[rules.PairKey]int, merges *int) {
	byRouter := make(map[string][]*Message)
	routers := make([]string, 0, 16)
	for _, m := range byTime {
		if _, ok := byRouter[m.Router]; !ok {
			routers = append(routers, m.Router)
		}
		byRouter[m.Router] = append(byRouter[m.Router], m)
	}
	sort.Strings(routers)
	for _, r := range routers {
		stream := byRouter[r]
		for i, mi := range stream {
			deadline := mi.Time.Add(s.cfg.RuleWindow)
			partners := s.rb.Partners(mi.Template)
			scanned := 0
			for j := i + 1; j < len(stream) && scanned < s.cfg.MaxScan; j++ {
				mj := stream[j]
				if mj.Time.After(deadline) {
					break
				}
				scanned++
				if !s.ruleMatch(partners, mj, mi, mj) {
					continue
				}
				if uf.union(mi.Seq, mj.Seq) {
					*merges++
					active[rulePair(mi.Template, mj.Template)]++
				}
			}
		}
	}
}

// crossPass merges same-template messages on connected locations of
// different routers within the near-simultaneity window.
func (s *Shardable) crossPass(byTime []*Message, uf *unionFind, merges *int) {
	for i, mi := range byTime {
		deadline := mi.Time.Add(s.cfg.CrossWindow)
		scanned := 0
		for j := i + 1; j < len(byTime) && scanned < s.cfg.MaxScan; j++ {
			mj := byTime[j]
			if mj.Time.After(deadline) {
				break
			}
			scanned++
			if !crossPair(mi, mj) {
				continue
			}
			if uf.same(mi.Seq, mj.Seq) {
				continue
			}
			if s.crossLinked(mi, mj) {
				if uf.union(mi.Seq, mj.Seq) {
					*merges++
				}
			}
		}
	}
}

// ruleMatch is the rule-based grouping predicate (§4.2.2) between an
// earlier message mi and a later mj: different templates connected by a
// mined association rule on spatially matching locations. partners is the
// rule partner list of whichever of the two the caller holds fixed, looked
// up once for all its candidates, and other is the one that is not. The
// window and scan bounds are the caller's job — the batch pass and the
// incremental engine's linear reference share this exact pair test.
func (s *Shardable) ruleMatch(partners []int, other, mi, mj *Message) bool {
	if mi.Template == mj.Template {
		return false // same-template grouping is pass 1's job
	}
	if _, ok := slices.BinarySearch(partners, other.Template); !ok {
		return false
	}
	return s.dict.SpatialMatch(mi.Loc, mj.Loc)
}

// rulePair canonicalizes a template pair for the ActiveRules tally.
func rulePair(x, y int) rules.PairKey {
	if x > y {
		x, y = y, x
	}
	return rules.PairKey{X: x, Y: y}
}

// crossPair is the cheap structural half of the cross-router predicate
// (§4.2.3): same template, different routers.
func crossPair(mi, mj *Message) bool {
	return mi.Template == mj.Template && mi.Router != mj.Router
}

// crossLinked is the topological half: the two locations are connected in
// the dictionary, or either message names the other's router as a peer.
func (s *Shardable) crossLinked(mi, mj *Message) bool {
	return s.dict.Connected(mi.Loc, mj.Loc) || peerHinted(mi, mj) || peerHinted(mj, mi)
}

// peerHinted reports whether message a explicitly references b's router as
// a peer (e.g. via a BGP neighbor address) — direct evidence of the
// cross-router relation even when locations are router-level.
func peerHinted(a, b *Message) bool {
	for _, p := range a.Peers {
		if p == b.Router {
			return true
		}
	}
	return false
}

// finalize converts the union-find into dense, deterministic group ids.
func finalize(msgs []Message, uf *unionFind, res *Result) {
	n := len(msgs)
	res.GroupOf = make([]int, n)
	rootToID := make(map[int]int)
	for seq := 0; seq < n; seq++ {
		root := uf.find(seq)
		id, ok := rootToID[root]
		if !ok {
			id = len(res.Groups)
			rootToID[root] = id
			res.Groups = append(res.Groups, nil)
		}
		res.GroupOf[seq] = id
		res.Groups[id] = append(res.Groups[id], seq)
	}
}
