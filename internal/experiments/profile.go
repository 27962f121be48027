// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) and application section (§6) against generated datasets.
// Each experiment is one function returning typed rows; render.go formats
// them in the paper's layout. DESIGN.md carries the experiment index and
// EXPERIMENTS.md the measured-vs-paper comparison.
//
// Scale substitution: the paper learns on three months of data and digests
// two weeks, over networks of thousands of routers producing millions of
// messages per day. The profiles below scale that to laptop size — tens of
// routers, days of simulated traffic — while keeping the *relational*
// structure (per-condition message bursts, timer periods, co-occurrence
// delays) intact, which is what every mined quantity depends on. "Week"
// granularity for rule evolution is likewise compressed to WeekDuration of
// simulated traffic per update period.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"syslogdigest/internal/core"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/temporal"
)

// Profile fixes the scale of one experiment run.
type Profile struct {
	Name           string
	Routers        int
	LearnDuration  time.Duration
	OnlineDuration time.Duration
	RateScale      float64
	Seed           int64
	Weeks          int           // rule-evolution periods (paper: 12)
	WeekDuration   time.Duration // simulated traffic per "week"
	// Parallelism is the learner's worker fan-out (0 = GOMAXPROCS, 1 =
	// serial). Every measured quantity is byte-identical
	// at any setting; only wall-clock changes.
	Parallelism int
}

// SmallProfile is the test/bench default: seconds of wall-clock per
// experiment.
func SmallProfile() Profile {
	return Profile{
		Name:           "small",
		Routers:        20,
		LearnDuration:  48 * time.Hour,
		OnlineDuration: 48 * time.Hour,
		RateScale:      0.4,
		Seed:           42,
		Weeks:          6,
		WeekDuration:   12 * time.Hour,
	}
}

// FullProfile is cmd/sdbench's default: the closest laptop-scale analog of
// the paper's setup (12 weekly updates, 14 online days).
func FullProfile() Profile {
	return Profile{
		Name:           "full",
		Routers:        80,
		LearnDuration:  6 * 24 * time.Hour,
		OnlineDuration: 14 * 24 * time.Hour,
		RateScale:      1,
		Seed:           42,
		Weeks:          12,
		WeekDuration:   24 * time.Hour,
	}
}

// ParamsFor returns the paper's Table 6 parameters for a dataset.
func ParamsFor(kind gen.DatasetKind) core.Params {
	p := core.DefaultParams()
	if kind == gen.DatasetB {
		p.Temporal.Alpha = 0.075
		p.Rules.Window = 40 * time.Second
	}
	return p
}

// Corpus bundles everything one dataset's experiments need: the learning
// and online periods plus the knowledge base learned from the former.
type Corpus struct {
	Kind    gen.DatasetKind
	Profile Profile
	Learn   *gen.Dataset
	Online  *gen.Dataset
	KB      *core.KnowledgeBase
	// LearnPlus is the augmented learning corpus (computed once).
	LearnPlus []core.PlusMessage
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[string]*Corpus{}
)

// Load generates (or returns the cached) corpus for a dataset and profile.
// The online period starts three months after the learning period and uses
// a distinct seed, mirroring the paper's Sep–Nov training / Dec 1–14
// reporting split.
func Load(kind gen.DatasetKind, p Profile) (*Corpus, error) {
	key := fmt.Sprintf("%v|%s|%d|%d|%d|%f|%d|%d", kind, p.Name, p.Routers,
		p.LearnDuration, p.OnlineDuration, p.RateScale, p.Seed, p.Parallelism)
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if c, ok := corpusCache[key]; ok {
		return c, nil
	}

	learn, err := gen.Generate(gen.Spec{
		Kind: kind, Routers: p.Routers, Seed: p.Seed,
		Start:    time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC),
		Duration: p.LearnDuration, RateScale: p.RateScale,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: learning corpus: %w", err)
	}
	online, err := gen.Generate(gen.Spec{
		Kind: kind, Routers: p.Routers, Seed: p.Seed + 1000,
		Start:    time.Date(2009, 12, 1, 0, 0, 0, 0, time.UTC),
		Duration: p.OnlineDuration, RateScale: p.RateScale,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: online corpus: %w", err)
	}
	params := ParamsFor(kind)
	params.Parallelism = p.Parallelism
	kb, err := core.NewLearner(params).Learn(learn.Messages, learn.Net.Configs)
	if err != nil {
		return nil, fmt.Errorf("experiments: learning: %w", err)
	}
	c := &Corpus{
		Kind: kind, Profile: p, Learn: learn, Online: online, KB: kb,
		LearnPlus: kb.AugmentAll(learn.Messages),
	}
	corpusCache[key] = c
	return c, nil
}

// StormParams are the digest parameters for a message-storm feed (the
// benchmark's storm_serial workload): the learned knowledge with a widened
// rule window and a raised scan cap, so the join windows hold the storm
// instead of trimming to the newest burst.
func StormParams(p core.Params) core.Params {
	p.Rules.Window = 600 * time.Second
	p.MaxScan = 4096
	return p
}

// ruleEvents projects the cached augmented learning corpus for mining.
func (c *Corpus) ruleEvents() []rules.Event {
	return core.RuleEvents(c.LearnPlus)
}

// learnStreams returns the per-(template, location) arrival streams of the
// learning corpus (temporal calibration input).
func (c *Corpus) learnStreams() [][]time.Time {
	return core.TemporalStreams(c.LearnPlus)
}

// onlineStreams returns the streams of the online corpus.
func (c *Corpus) onlineStreams() [][]time.Time {
	return core.TemporalStreams(c.KB.AugmentAll(c.Online.Messages))
}

// baseTemporal returns the corpus's normalized temporal parameters.
func (c *Corpus) baseTemporal() temporal.Params {
	return c.KB.Params.Temporal
}
