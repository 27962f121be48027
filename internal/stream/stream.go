// Package stream is the incremental online engine of SyslogDigest: it
// consumes augmented messages one at a time and emits each network event as
// soon as no grouping pass can still extend it, instead of re-running the
// batch pipeline at quiet gaps.
//
// The engine steps the grouper's two halves inline — a RouterLocal making
// the temporal and rule join decisions, a Merger keeping the partition over
// bounded state and deciding closure against the watermark — and hands
// what closes to event.Builder, which scores and labels each group exactly
// as the batch path would. Event-emission latency — how far the watermark
// had to advance past an event's last message before the event could be
// proven complete — is the closure horizon by construction:
// max(Smax, W, Cross) for enabled passes, ≈3h at the paper's Table 6
// defaults. That is the price of exactness; operators wanting earlier
// previews can lower Smax or Drain on a timer.
//
// Not safe for concurrent use: one engine per feed, callers serialize.
package stream

import (
	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
)

// Message is one augmented message entering the engine — the grouping
// layer's own record, so it crosses into the grouper without a copy. Seq must
// be unique and assigned in feed order (the engine's events report it back in
// MessageSeqs); Raw is the raw syslog index carried through to RawIndexes.
type Message = grouping.Message

// Config assembles an engine.
type Config struct {
	// Grouping tunes the incremental grouper (windows, stage selection,
	// MaxStreams state bound).
	Grouping grouping.IncrementalConfig
	// Freq supplies historical signature frequencies for scoring (nil: all
	// unseen).
	Freq *event.FreqTable
	// Labeler names events (nil: default heuristics).
	Labeler *event.Labeler
}

// Metrics are the engine's optional observability handles (all nil-safe).
type Metrics struct {
	Grouping    IncMetrics
	Emitted     *obs.Counter   // stream.emitted
	EmitLatency *obs.Histogram // stream.emit_latency_seconds (log time)
	Watermark   *obs.Gauge     // stream.watermark_unix_seconds

	// Two-tier emission books (PR 9), populated only when the provisional
	// horizon is on. They reconcile exactly: ProvFinalized == Emitted, and
	// ProvEmitted == ProvFinalized + ProvSuperseded (every identity that
	// gets a first signal either closes or is absorbed).
	ProvEmitted    *obs.Counter   // stream.provisional.emitted (revision-0 records)
	ProvRevised    *obs.Counter   // stream.provisional.revised
	ProvSuperseded *obs.Counter   // stream.provisional.superseded
	ProvFinalized  *obs.Counter   // stream.provisional.finalized
	RevisionChurn  *obs.Histogram // stream.provisional.revision_churn (revisions per final event)
	ProvLatency    *obs.Histogram // stream.provisional.latency_seconds (log time, first signal)
	ProvMembers    *obs.Histogram // stream.provisional.publication_members (members per provisional/revised record)
}

// EmitLatencyBounds are histogram bounds sized for closure latency, which
// is the closure horizon (up to hours at Smax = 3h), not milliseconds.
// Provisional first-signal latency shares them: it lands in the low
// buckets (≈ the provisional horizon), which is exactly the contrast the
// two histograms exist to show.
func EmitLatencyBounds() []float64 {
	return []float64{1, 5, 15, 60, 300, 900, 1800, 3600, 7200, 10800, 14400, 21600, 43200}
}

// ChurnBounds are histogram bounds for revisions-per-final-event: almost
// always single digits (one provisional plus a handful of revisions).
func ChurnBounds() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
}

// PublicationMembersBounds are histogram bounds for the size of a published
// group. Every publication rebuilds its whole event, so the histogram's sum
// divided by the messages pushed is the tier's member visits per message.
func PublicationMembersBounds() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
}

// Engine is one incremental digest pipeline instance: one RouterLocal and
// one Merger built from one Shardable (ShardedEngine holds N and one),
// stepped inline on the caller's goroutine, events returned by the call
// that closed them. It stays apart from ShardedEngine's dispatcher/merge
// core on purpose — that core is built around a goroutine hop (batching, a
// mutex-guarded collection queue, sync barriers), and running it inline
// would mean branching on "is there a hop" at every one of those steps. The
// two share the part that has no hop in it: the emitter.
type Engine struct {
	shardable *grouping.Shardable
	local     *grouping.RouterLocal
	merger    *grouping.Merger
	js        grouping.Joins
	em        emitter
	upd       []event.Update
}

// New builds an engine from learned knowledge. dict may not be nil; rb may
// be nil when rule-based grouping is disabled or nothing was mined.
func New(dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config) (*Engine, error) {
	s, err := grouping.NewShardable(dict, rb, cfg.Grouping)
	if err != nil {
		return nil, err
	}
	return &Engine{shardable: s, local: s.NewLocal(0), merger: s.NewMerger(), em: newEmitter(cfg, s.Pool())}, nil
}

// SetClusterMetrics installs observability handles. The serial engine has
// no shards, merge stage or wire, so only the embedded Metrics apply; it
// takes the superset so every engine shape has the one setter.
func (e *Engine) SetClusterMetrics(m ClusterMetrics) { e.em.setMetrics(m.Metrics) }

// Observe ingests one message (nondecreasing Time required) and returns the
// events its watermark advance closed, oldest first. Event IDs count up in
// emission order; ranking across events is the caller's concern (a live
// feed has no batch to rank within).
func (e *Engine) Observe(m Message) ([]event.Event, error) {
	// Validate before any state mutation: a time regression must leave the
	// models untouched.
	if err := e.merger.Progress().Check(m.Time); err != nil {
		return nil, err
	}
	p := e.shardable.Pool().Get(m)
	if err := e.local.Step(p, &e.js); err != nil {
		p.Release() // Step refuses a message before touching any state
		return nil, err
	}
	closed, err := e.merger.Apply(p, &e.js)
	if err != nil {
		p.Release() // Apply consumes the reference only on success
		return nil, err
	}
	e.em.met.Watermark.Set(float64(e.merger.Progress().Time().UnixNano()) / 1e9)
	return e.emit(closed), nil
}

// Drain force-closes every open group and returns the events, oldest
// first, and clears the join windows and per-stream predecessors, so no
// later message can group with anything emitted here. The temporal models
// and the watermark persist: interarrival knowledge survives a drain, and
// time still may not run backwards.
func (e *Engine) Drain() []event.Event {
	closed := e.merger.Drain()
	e.local.DrainWindows()
	return e.emit(closed)
}

// emit runs the shared emitter over what the last grouper step produced,
// hands the member buffers back to the merger and publishes the grouper's
// book, so once per Observe or Drain. The returned event slice is freshly
// allocated (the caller may retain it); it is the one steady-state
// allocation left on the emission path, paid only on the rare calls that
// actually close groups.
func (e *Engine) emit(closed []grouping.ClosedGroup) []event.Event {
	var evs []event.Event
	if len(closed) > 0 {
		evs = make([]event.Event, 0, len(closed))
	}
	e.em.emit(e.merger.TakeUpdates(), closed, e.merger.Progress().Time(), &evs, &e.upd)
	e.merger.Recycle(closed)
	e.em.publish(e.Stats)
	return evs
}

// TakeUpdates returns and clears the tier-tagged updates queued since the
// last call, in emission order (provisional/revised/superseded records
// interleaved with the final records of the events the same steps closed).
// Always empty when the provisional tier is off.
func (e *Engine) TakeUpdates() []event.Update {
	out := e.upd
	e.upd = nil
	return out
}

// Close is a no-op: the serial engine owns no goroutines. It exists so
// callers can hold either engine behind one interface (ShardedEngine's
// Close is load-bearing).
func (e *Engine) Close() {}

// Progress is the engine's watermark, the maximum message time observed:
// the Merger's record, the only one the serial engine keeps.
func (e *Engine) Progress() grouping.Progress { return e.merger.Progress() }

// ActiveRules is the cumulative per-pair rule-merge tally.
func (e *Engine) ActiveRules() map[rules.PairKey]int { return e.merger.ActiveRules() }

// Stats snapshots the grouper state and merge counters.
func (e *Engine) Stats() grouping.IncStats {
	return grouping.SumStats(e.merger.Stats(), e.local.Stats())
}

// Pending is the number of messages in not-yet-closed groups.
func (e *Engine) Pending() int { return e.merger.Stats().OpenMessages }
