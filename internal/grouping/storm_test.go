package grouping_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"syslogdigest/internal/core"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/grouping"
)

// stormCorpus learns a knowledge base from a calm corpus, then generates a
// flap storm over the same topology (same kind, router count and seed, so
// the network is identical) and augments it with that knowledge: link, BGP
// and tunnel episodes an order of magnitude above the learn-time rates plus
// heavy noise, so the rule and cross windows stay near-full with messages
// whose templates are mostly NOT rule partners of each other — the regime
// the template index exists for. The grouping configuration carries the
// storm tuning (a wide rule window and a raised scan cap, so the windows
// hold the storm instead of trimming to the newest burst). Same corpus and
// parameters as internal/core's learnStorm.
func stormCorpus(t *testing.T) (*core.KnowledgeBase, []grouping.Message, grouping.IncrementalConfig) {
	t.Helper()
	calm, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: 16, Seed: 3,
		Duration: 36 * time.Hour, RateScale: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := core.NewLearner(core.DefaultParams()).Learn(calm.Messages, calm.Net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	storm, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: 16, Seed: 3,
		Duration: 6 * time.Hour,
		Rates: gen.Rates{
			LinkFlap: 40, Controller: 6, BGPFlap: 20, CPUSpike: 60,
			PeriodicMsg: 12000, Noise: 200000, Config: 60, EnvAlarm: 24, TunnelFlap: 15,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	plus := kb.AugmentAll(storm.Messages)
	msgs := make([]grouping.Message, len(plus))
	for i := range plus {
		msgs[i] = grouping.Message{
			Seq: i, Time: plus[i].Time, Router: plus[i].Router, Template: plus[i].Template,
			Loc: plus[i].Loc, AllLocs: plus[i].AllLocs, Peers: plus[i].Peers,
		}
	}
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].Time.Before(msgs[j].Time) })
	cfg := grouping.IncrementalConfig{Config: grouping.Config{
		Temporal:    kb.Params.Temporal,
		RuleWindow:  600 * time.Second,
		CrossWindow: kb.Params.CrossWindow,
		MaxScan:     4096,
	}}
	return kb, msgs, cfg
}

// closure is one closed group and the feed position that closed it
// (len(msgs) for the final drain).
type closure struct {
	Step    int
	Members []int
}

// stormRun feeds the corpus through the two grouping halves the way the
// streaming engines compose them — routers dealt over `shards`
// RouterLocals, one Merger applying their join decisions in feed order
// (shards = 1 is exactly Incremental) — and returns every closure plus the
// summed scan counters.
func stormRun(t *testing.T, kb *core.KnowledgeBase, msgs []grouping.Message, cfg grouping.IncrementalConfig, shards int) ([]closure, grouping.IncStats) {
	t.Helper()
	s, err := grouping.NewShardable(kb.Dictionary(), kb.RuleBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	locals := make([]*grouping.RouterLocal, shards)
	for i := range locals {
		locals[i] = s.NewLocal(0)
	}
	mg := s.NewMerger()
	var (
		js      grouping.Joins
		out     []closure
		shardOf = map[string]int{} // router → shard, round-robin in first-seen order
	)
	record := func(step int, closed []grouping.ClosedGroup) {
		for _, cg := range closed {
			c := closure{Step: step, Members: make([]int, len(cg.Members))}
			for i := range cg.Members {
				c.Members[i] = cg.Members[i].Seq
			}
			out = append(out, c)
		}
		mg.Recycle(closed)
	}
	for i := range msgs {
		k, ok := shardOf[msgs[i].Router]
		if !ok {
			k = len(shardOf) % shards
			shardOf[msgs[i].Router] = k
		}
		p := s.Pool().Get(msgs[i])
		if err := locals[k].Step(p, &js); err != nil {
			t.Fatal(err)
		}
		closed, err := mg.Apply(p, &js)
		if err != nil {
			t.Fatal(err)
		}
		record(i, closed)
	}
	record(len(msgs), mg.Drain())
	var st grouping.IncStats
	for _, rl := range locals {
		ls := rl.Stats()
		st.RuleCandidates += ls.RuleCandidates
		st.RulePairs += ls.RulePairs
	}
	st.CrossCandidates = mg.Stats().CrossCandidates
	return out, st
}

// TestStormIndexedMatchesLinear is the differential for the
// template-indexed windows on a corpus that stresses them: composed over
// one and over four router-local shards, the indexed passes must close
// exactly the groups the linear reference closes, at the same feed
// positions, and match the same number of rule pairs, while examining at
// least 5x fewer rule-window candidates and no more cross-window ones.
func TestStormIndexedMatchesLinear(t *testing.T) {
	kb, msgs, cfg := stormCorpus(t)
	linCfg := cfg
	linCfg.Config = grouping.LinearReference(cfg.Config)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			lin, stLin := stormRun(t, kb, msgs, linCfg, shards)
			idx, stIdx := stormRun(t, kb, msgs, cfg, shards)
			if len(idx) != len(lin) {
				t.Fatalf("indexed closed %d groups, linear %d", len(idx), len(lin))
			}
			for i := range idx {
				if !reflect.DeepEqual(idx[i], lin[i]) {
					t.Fatalf("closure %d diverges:\nindexed %+v\nlinear  %+v", i, idx[i], lin[i])
				}
			}
			if stIdx.RulePairs != stLin.RulePairs {
				t.Fatalf("rule pairs diverge: indexed %d linear %d", stIdx.RulePairs, stLin.RulePairs)
			}
			candIdx, candLin := stIdx.RuleCandidates, stLin.RuleCandidates
			if candIdx == 0 || candLin == 0 {
				t.Fatalf("degenerate scan counts: indexed %d linear %d", candIdx, candLin)
			}
			if candLin < 5*candIdx {
				t.Fatalf("rule-scan reduction %.2fx < 5x (indexed %d, linear %d)",
					float64(candLin)/float64(candIdx), candIdx, candLin)
			}
			crossIdx, crossLin := stIdx.CrossCandidates, stLin.CrossCandidates
			if crossIdx > crossLin {
				t.Fatalf("cross index scanned more than linear: %d > %d", crossIdx, crossLin)
			}
			t.Logf("shards=%d rule cands: linear %d indexed %d (%.1fx); cross: linear %d indexed %d (%.1fx)",
				shards, candLin, candIdx, float64(candLin)/float64(candIdx),
				crossLin, crossIdx, float64(crossLin)/float64(crossIdx))
		})
	}
}
