// Package core wires the paper's components into the two halves of Figure 1:
//
//   - Learner (offline domain knowledge learning): template signature
//     identification over historical syslog, location dictionary
//     construction from router configs, temporal pattern calibration, and
//     association rule mining — producing a KnowledgeBase;
//   - Digester (online processing): signature matching and location parsing
//     augment raw messages into Syslog+ messages, the three grouping passes
//     form events, and prioritization ranks them for presentation.
//
// The KnowledgeBase serializes to JSON so learning and digesting can run as
// separate processes (cmd/sdlearn, cmd/sddigest), mirroring the paper's
// periodic-offline/continuous-online split.
package core

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"syslogdigest/internal/event"
	"syslogdigest/internal/expert"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/locparse"
	"syslogdigest/internal/netconf"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/template"
	"syslogdigest/internal/temporal"
	"syslogdigest/internal/textutil"
)

// PlusMessage is a Syslog+ message: the raw message augmented with its
// matched template and parsed locations (§3.1).
type PlusMessage struct {
	syslogmsg.Message
	// Template is the matched template ID, or -1 when no learned template
	// of the message's code matches.
	Template int
	// Loc is the primary (finest) location; AllLocs every resolved one.
	Loc     locdict.Location
	AllLocs []locdict.Location
	// Peers are other routers the message references.
	Peers []string
}

// Params bundles every tunable of the pipeline; the zero value is filled
// with the paper's Table 6 defaults on use.
type Params struct {
	// Template tunes offline template learning.
	Template template.Options
	// Temporal are the online grouping EWMA parameters (learned offline
	// when Calibrate is enabled).
	Temporal temporal.Params
	// Rules tunes association mining; Rules.Window doubles as the
	// rule-based grouping window W.
	Rules rules.Config
	// CrossWindow is the cross-router near-simultaneity bound (1s).
	CrossWindow time.Duration
	// MaxScan caps how many window entries one message is compared
	// against in the rule and cross passes, bounding worst-case storm
	// cost. 0 means the grouping default (256). Raising it widens the
	// effective window during bursts — a tuning parameter with output
	// semantics, not a runtime-only knob.
	MaxScan int
	// CalibrateTemporal makes Learn sweep alpha/beta grids instead of
	// trusting Temporal as given.
	CalibrateTemporal bool
}

// DefaultParams returns the paper's Table 6 configuration for dataset A;
// dataset B differs only in W (40s) and alpha (0.075).
func DefaultParams() Params {
	return Params{
		Temporal:    temporal.DefaultParams(),
		Rules:       rules.Config{Window: 120 * time.Second, SPmin: 0.0005, ConfMin: 0.8},
		CrossWindow: time.Second,
	}
}

func (p Params) normalize() Params {
	if p.Temporal == (temporal.Params{}) {
		p.Temporal = temporal.DefaultParams()
	}
	if p.Temporal.Smin == 0 {
		p.Temporal.Smin = time.Second
	}
	if p.Temporal.Smax == 0 {
		p.Temporal.Smax = 3 * time.Hour
	}
	if p.Rules.Window == 0 {
		p.Rules.Window = 120 * time.Second
	}
	if p.Rules.SPmin == 0 {
		p.Rules.SPmin = 0.0005
	}
	if p.Rules.ConfMin == 0 {
		p.Rules.ConfMin = 0.8
	}
	if p.CrossWindow == 0 {
		p.CrossWindow = time.Second
	}
	return p
}

// KnowledgeBase is the output of offline learning and the input of online
// digesting.
//
// Concurrency: the derived indexes (template matcher, location dictionary,
// location parser) are built once by finish() and never mutated afterwards
// — matching and parsing are pure lookups, and the match cache holds its
// own lock. Augment and AugmentAll are therefore safe to call from any
// number of goroutines concurrently (several streamers may share one base;
// the pipeline itself augments on one goroutine per caller). Mutating methods
// (Relearn, UpdateRules, ApplyExpert) are NOT safe to run concurrently
// with augmentation; they follow the paper's periodic-offline cadence.
type KnowledgeBase struct {
	Params    Params
	Templates []template.Template
	RuleBase  *rules.RuleBase
	Freq      *event.FreqTable
	Configs   []*netconf.Config
	// ExpertNames are operator-assigned template names (template ID →
	// display name), the paper's optional expert input for presentation.
	ExpertNames map[int]string

	matcher *template.Matcher
	dict    *locdict.Dictionary
	parser  *locparse.Parser
	cache   *matchCache
	// cacheSize is the match cache's capacity as SetMatchCache last set
	// it: 0 means DefaultMatchCache, negative disables the cache.
	cacheSize int
	met       kbMetrics
	reg       *obs.Registry
}

// kbMetrics are the knowledge base's optional augment-path counters; the
// zero value records nothing (obs metrics are nil-safe).
type kbMetrics struct {
	cacheHits      *obs.Counter // digest.match.cache.hits
	cacheMisses    *obs.Counter // digest.match.cache.misses
	cacheEvictions *obs.Counter // digest.match.cache.evictions
}

// finish builds the derived indexes after the learned fields are set.
func (kb *KnowledgeBase) finish() error {
	if kb.RuleBase == nil {
		kb.RuleBase = rules.NewRuleBase()
	}
	if kb.Freq == nil {
		kb.Freq = event.NewFreqTable()
	}
	kb.matcher = template.NewMatcher(kb.Templates)
	kb.resetMatchCache()
	if kb.reg != nil {
		kb.matcher.Instrument(kb.reg)
	}
	dict, err := locdict.Build(kb.Configs)
	if err != nil {
		return fmt.Errorf("core: location dictionary: %w", err)
	}
	kb.dict = dict
	kb.parser = locparse.New(dict)
	return nil
}

// resetMatchCache (re)builds the repeat-message cache at kb.cacheSize.
// Any mutation of the matching inputs (Relearn swapping the matcher) must
// call it: stale entries would otherwise serve the old matcher's answers.
func (kb *KnowledgeBase) resetMatchCache() {
	size := kb.cacheSize
	if size == 0 {
		size = DefaultMatchCache
	}
	if size < 0 {
		kb.cache = nil
		return
	}
	kb.cache = newMatchCache(size)
}

// SetMatchCache resizes the repeat-message augment cache (0 = default,
// negative = disabled) and flushes it. Not safe to call concurrently with
// augmentation — it is a between-batches knob. Cached values are exactly
// what the miss path computes, so the size (and the hit pattern) never
// changes output.
func (kb *KnowledgeBase) SetMatchCache(entries int) {
	kb.cacheSize = entries
	kb.resetMatchCache()
}

// Instrument publishes the knowledge base's augment-path metrics into reg:
// the repeat-message cache counters (digest.match.cache.{hits,misses,
// evictions}) and the matcher's candidate-scan counter
// (digest.match.candidates_scanned). Call before augmentation begins; a nil
// registry leaves the base uninstrumented. Digester.Instrument calls this,
// so instrumenting a digester covers its knowledge base.
func (kb *KnowledgeBase) Instrument(reg *obs.Registry) {
	kb.reg = reg
	kb.met = kbMetrics{
		cacheHits:      reg.Counter("digest.match.cache.hits"),
		cacheMisses:    reg.Counter("digest.match.cache.misses"),
		cacheEvictions: reg.Counter("digest.match.cache.evictions"),
	}
	kb.matcher.Instrument(reg)
}

// Dictionary exposes the location dictionary (read-only use).
func (kb *KnowledgeBase) Dictionary() *locdict.Dictionary { return kb.dict }

// Matcher exposes the template matcher (read-only use).
func (kb *KnowledgeBase) Matcher() *template.Matcher { return kb.matcher }

// tokenScratch pools Augment's token buffers: operational syslog details
// tokenize into a handful of words, and neither the matcher nor the parser
// retains the slice, so one buffer per worker serves the whole steady state.
var tokenScratch = sync.Pool{New: func() any { return &tokenBuf{} }}

type tokenBuf struct {
	toks []string
}

// Augment converts one raw message into a Syslog+ message using the learned
// templates and location dictionary. The detail is tokenized once (into a
// pooled buffer) and the tokens shared between signature matching and
// location parsing — both consume the same whitespace split, and this is
// the hottest path in the online pipeline. Safe for concurrent use (see the
// type comment).
//
// Repeated messages — same (router, code, detail), the dominant shape of
// operational syslog — are served from the bounded match cache when enabled
// (see SetMatchCache): tokenization, signature matching, and location
// parsing are all skipped. Cache hits share the AllLocs and Peers backing
// arrays across the PlusMessages of identical raw messages; the pipeline
// never mutates them, and neither may callers (treat both as read-only,
// which was already the practical contract).
func (kb *KnowledgeBase) Augment(m *syslogmsg.Message) PlusMessage {
	pm := PlusMessage{Message: *m, Template: -1}
	c := kb.cache
	var key cacheKey
	var h uint64
	if c != nil {
		key = cacheKey{router: m.Router, code: m.Code, detail: m.Detail}
		h = c.hash(key)
		if c.get(key, h, &pm) {
			kb.met.cacheHits.Inc()
			return pm
		}
		kb.met.cacheMisses.Inc()
	}
	sc := tokenScratch.Get().(*tokenBuf)
	toks := textutil.TokenizeInto(m.Detail, sc.toks)
	if t, ok := kb.matcher.MatchTokens(m.Code, toks); ok {
		pm.Template = t.ID
	}
	info := kb.parser.ParseTokens(m, toks)
	sc.toks = toks
	tokenScratch.Put(sc)
	pm.Loc = info.Primary
	pm.AllLocs = info.All
	pm.Peers = info.PeerRouters
	if c != nil {
		if c.put(key, h, cacheVal{template: pm.Template, info: info}) {
			kb.met.cacheEvictions.Inc()
		}
	}
	return pm
}

// AugmentAll converts a batch in order on the caller's goroutine, so the
// match cache sees the same access sequence, and its counters read the same,
// on every run over the same input.
func (kb *KnowledgeBase) AugmentAll(msgs []syslogmsg.Message) []PlusMessage {
	out := make([]PlusMessage, len(msgs))
	for i := range msgs {
		out[i] = kb.Augment(&msgs[i])
	}
	return out
}

// Learner runs the offline domain knowledge learning of Figure 1. Template
// learning, calibration and rule mining fan out over par's GOMAXPROCS
// workers; the knowledge base is identical at any worker count.
type Learner struct {
	params Params
}

// NewLearner builds a learner; zero-value fields in params take Table 6
// defaults.
func NewLearner(params Params) *Learner {
	return &Learner{params: params.normalize()}
}

// Learn builds a knowledge base from historical messages and router
// configs. When CalibrateTemporal is set, alpha and beta are chosen by the
// §5.2.3 compression-ratio sweep over the historical streams.
func (l *Learner) Learn(historical []syslogmsg.Message, configs []*netconf.Config) (*KnowledgeBase, error) {
	kb := &KnowledgeBase{
		Params:    l.params,
		Templates: template.Learn(historical, l.params.Template),
		Configs:   configs,
	}
	if err := kb.finish(); err != nil {
		return nil, err
	}

	// Augment the history once; every remaining learning step consumes the
	// Syslog+ view.
	plus := kb.AugmentAll(historical)

	// Signature frequency per router (scoring input).
	kb.Freq = event.NewFreqTable()
	for i := range plus {
		kb.Freq.Add(plus[i].Router, plus[i].Template, 1)
	}

	// Temporal calibration over per-(template, location) streams.
	if l.params.CalibrateTemporal {
		streams := TemporalStreams(plus)
		alphas := []float64{0.01, 0.025, 0.05, 0.075, 0.1, 0.2, 0.3, 0.45, 0.6}
		betas := []float64{2, 3, 4, 5, 6, 7}
		best, err := temporal.Calibrate(streams, alphas, betas, l.params.Temporal)
		if err != nil {
			return nil, fmt.Errorf("core: temporal calibration: %w", err)
		}
		kb.Params.Temporal = best
	}

	// Association rule mining over the whole history.
	res, err := rules.Mine(RuleEvents(plus), l.params.Rules)
	if err != nil {
		return nil, fmt.Errorf("core: rule mining: %w", err)
	}
	kb.RuleBase = rules.NewRuleBase()
	kb.RuleBase.Update(res)
	return kb, nil
}

// UpdateRules applies one period's incremental mining (the paper's weekly
// refresh) to the knowledge base.
func (l *Learner) UpdateRules(kb *KnowledgeBase, period []syslogmsg.Message) (rules.UpdateStats, error) {
	plus := kb.AugmentAll(period)
	res, err := rules.Mine(RuleEvents(plus), l.params.Rules)
	if err != nil {
		return rules.UpdateStats{}, fmt.Errorf("core: rule mining: %w", err)
	}
	return kb.RuleBase.Update(res), nil
}

// TemporalStreams collects the sorted arrival times of each (template,
// location) stream, the input to temporal calibration.
func TemporalStreams(plus []PlusMessage) [][]time.Time {
	type key struct {
		template int
		loc      locdict.Location
	}
	m := make(map[key][]time.Time)
	for i := range plus {
		k := key{plus[i].Template, plus[i].Loc}
		m[k] = append(m[k], plus[i].Time)
	}
	out := make([][]time.Time, 0, len(m))
	for _, ts := range m {
		// Streams arrive in global time order per key because callers pass
		// time-sorted history; enforce anyway for safety.
		for i := 1; i < len(ts); i++ {
			if ts[i].Before(ts[i-1]) {
				sortTimes(ts)
				break
			}
		}
		out = append(out, ts)
	}
	return out
}

func sortTimes(ts []time.Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
}

// RuleEvents projects Syslog+ messages onto the rule miner's input.
func RuleEvents(plus []PlusMessage) []rules.Event {
	out := make([]rules.Event, len(plus))
	for i := range plus {
		out[i] = rules.Event{Time: plus[i].Time, Router: plus[i].Router, Template: plus[i].Template}
	}
	return out
}

// Stage selects how much of the grouping pipeline runs (Table 7): the
// grouping configuration's own stage, whose zero value runs all three
// passes.
type Stage = grouping.Stage

const (
	// StageTemporal runs temporal grouping only (T).
	StageTemporal = grouping.StageTemporal
	// StageTemporalRules adds rule-based grouping (T+R).
	StageTemporalRules = grouping.StageTemporalRules
	// StageFull adds cross-router grouping (T+R+C).
	StageFull = grouping.StageFull
)

// DigestResult is one online batch's output.
type DigestResult struct {
	Events      []event.Event
	Messages    []PlusMessage
	ActiveRules map[rules.PairKey]int
	// Updates are the tier-tagged provisional/revised/superseded/final
	// records emitted during this result's window, in emission order.
	// Populated only by streaming pushes with a provisional horizon set;
	// batch digests and final-only streams leave it nil.
	Updates []event.Update
}

// CompressionRatio is events/messages (1 for an empty batch).
func (r *DigestResult) CompressionRatio() float64 {
	if len(r.Messages) == 0 {
		return 1
	}
	return float64(len(r.Events)) / float64(len(r.Messages))
}

// digestMetrics are the digester's optional observability handles; the
// zero value (all nil) records nothing, so the uninstrumented hot path
// pays only the nil checks inside obs.
type digestMetrics struct {
	batches    *obs.Counter   // digest.batches
	messagesIn *obs.Counter   // digest.messages_in
	eventsOut  *obs.Counter   // digest.events_out
	ratio      *obs.Gauge     // digest.compression_ratio (last batch)
	batchSize  *obs.Histogram // digest.batch_size
	augment    *obs.Histogram // digest.augment_seconds
	group      *obs.Histogram // digest.group_seconds
	build      *obs.Histogram // digest.build_seconds
	// grouping holds only the three group.merges.* counters: a batch has
	// no open state to gauge once it is digested.
	grouping stream.IncMetrics
}

// Digester is the online half of SyslogDigest. A batch augments on the
// caller's goroutine and groups on the serial engine. The shape of a
// streaming run is not decided here: it is StreamerOptions, per streamer.
type Digester struct {
	kb      *KnowledgeBase
	stage   Stage
	builder *event.Builder
	labeler *event.Labeler
	met     digestMetrics
}

// NewDigester builds a digester over a learned knowledge base.
func NewDigester(kb *KnowledgeBase) (*Digester, error) {
	if kb == nil || kb.matcher == nil {
		return nil, fmt.Errorf("core: knowledge base not initialized")
	}
	labeler := event.NewLabeler(kb.Templates)
	for id, name := range kb.ExpertNames {
		labeler.SetName(id, name)
	}
	return &Digester{
		kb:      kb,
		builder: event.NewBuilder(kb.Freq, labeler),
		labeler: labeler,
	}, nil
}

// SetStage restricts the grouping pipeline (for the Table 7 ablation).
func (d *Digester) SetStage(s Stage) { d.stage = s }

// Instrument publishes the digester's metrics (digest.*, group.merges.*)
// into reg: wall-time histograms for the augment/group/build stages, batch
// size and message/event counters, the last batch's compression ratio, and
// per-pass grouping merge counts. A nil registry leaves the digester
// uninstrumented.
func (d *Digester) Instrument(reg *obs.Registry) {
	d.met = digestMetrics{
		batches:    reg.Counter("digest.batches"),
		messagesIn: reg.Counter("digest.messages_in"),
		eventsOut:  reg.Counter("digest.events_out"),
		ratio:      reg.Gauge("digest.compression_ratio"),
		batchSize:  reg.Histogram("digest.batch_size", obs.SizeBounds()),
		augment:    reg.Histogram("digest.augment_seconds", obs.LatencyBounds()),
		group:      reg.Histogram("digest.group_seconds", obs.LatencyBounds()),
		build:      reg.Histogram("digest.build_seconds", obs.LatencyBounds()),
		grouping: stream.IncMetrics{
			MergeTemporal: reg.Counter("group.merges.temporal"),
			MergeRule:     reg.Counter("group.merges.rule"),
			MergeCross:    reg.Counter("group.merges.cross"),
		},
	}
	d.kb.Instrument(reg)
}

// Labeler exposes the event labeler for expert naming overrides.
func (d *Digester) Labeler() *event.Labeler { return d.labeler }

// Digest processes one batch of raw messages into ranked events.
func (d *Digester) Digest(msgs []syslogmsg.Message) (*DigestResult, error) {
	start := time.Now()
	plus := d.kb.AugmentAll(msgs)
	d.met.augment.Observe(time.Since(start).Seconds())
	return d.DigestPlus(plus)
}

// groupingConfig derives the grouping configuration from the knowledge
// base's parameters and the selected stage; shared by the incremental
// engine and the reference batch path.
func (d *Digester) groupingConfig() grouping.Config {
	return grouping.Config{
		Temporal:    d.kb.Params.Temporal,
		RuleWindow:  d.kb.Params.Rules.Window,
		CrossWindow: d.kb.Params.CrossWindow,
		MaxScan:     d.kb.Params.MaxScan,
		Stage:       d.stage,
	}
}

// streamEngine is the surface a Streamer drives. Two types satisfy it with
// byte-identical output: the serial stream.Engine, and stream.ShardedEngine
// — one dispatcher/merge core whose shards sit behind either in-process or
// TCP links.
type streamEngine interface {
	Observe(stream.Message) ([]event.Event, error)
	Drain() []event.Event
	Close()
	// Progress is how far the engine has been fed: the late-arrival check
	// and Streamer.Watermark read it, and nothing keeps a copy.
	Progress() grouping.Progress
	Pending() int
	// SetClusterMetrics takes the superset metric struct; each engine
	// installs the handles it has a use for.
	SetClusterMetrics(stream.ClusterMetrics)
	// TakeUpdates returns and clears the tier-tagged provisional updates
	// queued since the last call; always empty when the provisional
	// horizon is off.
	TakeUpdates() []event.Update
	// State snapshots the engine for checkpointing, returning any emitted
	// events and tier-tagged updates awaiting collection alongside (they
	// stay queued in the live engine; the snapshot owner must persist them
	// for exactly-once).
	State() (stream.EngineState, []event.Event, []event.Update, error)
	// Restore loads a State taken by any engine shape at any shard count
	// into an engine that has observed nothing yet.
	Restore(stream.EngineState) error
}

// Interface drift must fail the build, not a metrics setter at run time.
var (
	_ streamEngine = (*stream.Engine)(nil)
	_ streamEngine = (*stream.ShardedEngine)(nil)
)

// engineConfig assembles the streaming engine config. maxStreams <= 0
// takes the grouping default; prov > 0 turns on the provisional tier
// (batch digesting always passes 0 — a batch result is final by nature).
func (d *Digester) engineConfig(maxStreams int, prov time.Duration) stream.Config {
	return stream.Config{
		Grouping: grouping.IncrementalConfig{
			Config:             d.groupingConfig(),
			MaxStreams:         maxStreams,
			ProvisionalHorizon: prov,
		},
		Freq:    d.kb.Freq,
		Labeler: d.labeler,
	}
}

// newStreamEngine is the one place an engine shape is chosen: the sharded
// core over TCP links when opts.ShardAddrs is non-empty (one remote shard
// per address), over in-process links when opts.StreamWorkers > 1, the
// serial engine otherwise. Sharded engines own goroutines — callers must
// Close.
func (d *Digester) newStreamEngine(opts StreamerOptions) (streamEngine, error) {
	cfg := d.engineConfig(opts.MaxStreams, opts.ProvisionalHorizon)
	switch {
	case len(opts.ShardAddrs) > 0:
		return stream.NewCluster(d.kb.dict, d.kb.RuleBase, cfg, opts.ShardAddrs)
	case opts.StreamWorkers > 1:
		return stream.NewSharded(d.kb.dict, d.kb.RuleBase, cfg, opts.StreamWorkers)
	}
	return stream.New(d.kb.dict, d.kb.RuleBase, cfg)
}

// streamMsg projects one augmented message into the engine's input shape.
func streamMsg(pm *PlusMessage, seq int) stream.Message {
	return stream.Message{
		Seq: seq, Time: pm.Time, Router: pm.Router, Template: pm.Template,
		Loc: pm.Loc, AllLocs: pm.AllLocs, Peers: pm.Peers, Raw: pm.Index,
	}
}

// DigestPlus processes a batch that is already augmented. It drives the
// serial incremental engine a Streamer runs: messages feed in time order,
// events close behind the watermark, a final drain closes the rest, and one
// global rank restores the batch presentation order. The retired three-pass
// batch implementation survives as ReferenceDigestPlus, the differential
// oracle the streaming path is tested against.
func (d *Digester) DigestPlus(plus []PlusMessage) (*DigestResult, error) {
	groupStart := time.Now()
	eng, err := stream.New(d.kb.dict, d.kb.RuleBase, d.engineConfig(0, 0))
	if err != nil {
		return nil, err
	}
	// Feed order: ascending time, ties by batch position — the same order
	// the batch grouper sorted into, so partitions match exactly.
	order := make([]int, len(plus))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := &plus[order[a]], &plus[order[b]]
		if !pa.Time.Equal(pb.Time) {
			return pa.Time.Before(pb.Time)
		}
		return order[a] < order[b]
	})
	var events []event.Event
	for _, i := range order {
		evs, err := eng.Observe(streamMsg(&plus[i], i))
		if err != nil {
			return nil, err
		}
		events = append(events, evs...)
	}
	events = append(events, eng.Drain()...)
	d.met.group.Observe(time.Since(groupStart).Seconds())

	buildStart := time.Now()
	// Emission order is closure order; the batch contract is rank order
	// with deterministic IDs.
	rankBatch(events)
	d.met.build.Observe(time.Since(buildStart).Seconds())

	out := &DigestResult{Events: events, Messages: plus, ActiveRules: eng.ActiveRules()}
	d.met.batches.Inc()
	d.met.messagesIn.Add(uint64(len(plus)))
	d.met.eventsOut.Add(uint64(len(events)))
	d.met.batchSize.Observe(float64(len(plus)))
	d.met.ratio.Set(out.CompressionRatio())
	// The engine lived for this batch only: its whole book is the batch's work.
	book := eng.Stats()
	d.met.grouping.Publish(&grouping.IncStats{}, &book)
	return out, nil
}

// rankBatch puts a batch's events in rank order with IDs numbered along it.
// Pre-sorting by earliest member makes the stable Rank's result (IDs
// included) independent of the order the events were built in.
func rankBatch(events []event.Event) {
	sort.Slice(events, func(a, b int) bool {
		return events[a].MessageSeqs[0] < events[b].MessageSeqs[0]
	})
	event.Rank(events)
	for i := range events {
		events[i].ID = i
	}
}

// ReferenceDigestPlus is the original batch implementation — sort, three
// grouping passes into a union-find, build, rank — kept as the oracle for
// the streaming engine's differential tests. It records no metrics.
func (d *Digester) ReferenceDigestPlus(plus []PlusMessage) (*DigestResult, error) {
	s, err := grouping.NewShardable(d.kb.dict, d.kb.RuleBase, grouping.IncrementalConfig{Config: d.groupingConfig()})
	if err != nil {
		return nil, err
	}
	batch := make([]grouping.Message, len(plus))
	for i := range plus {
		batch[i] = streamMsg(&plus[i], i)
	}
	res, err := s.Group(batch)
	if err != nil {
		return nil, err
	}
	// Members in ascending Seq order, as every engine folds them.
	events := make([]event.Event, len(res.Groups))
	var members []grouping.Message
	for i, seqs := range res.Groups {
		members = members[:0]
		for _, seq := range seqs {
			members = append(members, batch[seq])
		}
		events[i] = d.builder.BuildGroup(members)
	}
	rankBatch(events)
	return &DigestResult{Events: events, Messages: plus, ActiveRules: res.ActiveRules}, nil
}

// ApplyExpert parses and applies domain-expert adjustments (see the expert
// package) to the knowledge base: asserted/removed rules take effect in the
// rule base, and template names persist in ExpertNames so every digester
// built from this base presents them. Returns the number of directives that
// took effect.
func (kb *KnowledgeBase) ApplyExpert(r io.Reader) (int, error) {
	ds, err := expert.Parse(r, kb.Templates)
	if err != nil {
		return 0, err
	}
	applied := expert.Apply(ds, kb.RuleBase, nil)
	for _, d := range ds {
		if d.Kind == expert.KindName {
			if kb.ExpertNames == nil {
				kb.ExpertNames = make(map[int]string)
			}
			kb.ExpertNames[d.X] = d.Name
			applied++
		}
	}
	return applied, nil
}
