// Incremental grouping: the same three passes as Grouper.Group, run one
// message at a time over bounded state, with watermark-driven group closure.
//
// The batch grouper sorts a whole batch and scans it with a union-find; this
// file maintains the equivalent partition online. Each arriving message
// starts as a singleton group, then up to three join steps run against
// bounded windows of recent messages:
//
//   - temporal: one EWMA model per live (template, location) stream plus a
//     pointer to the stream's previous message;
//   - rule-based: per-router rings of the last MaxScan messages, expired
//     past the rule window W;
//   - cross-router: one global ring of the last MaxScan messages, expired
//     past the cross window.
//
// The watermark is the maximum message time observed. A group closes — is
// emitted and its state dropped — once
//
//	watermark − group.lastTime > horizon,   horizon = max(Smax, W, Cross)
//
// (windows that a disabled stage would use are excluded from the max). The
// rule is safe because every join step pairs an old message m with the
// current message cur, and each pass bounds cur.Time − m.Time: temporal
// joins require the interarrival st < Smax (Observe returns false at
// st ≥ Smax), rule joins require it ≤ W, cross joins ≤ Cross. So a group
// whose newest member is older than watermark − horizon cannot gain a
// member directly, and — since any transitive extension must start with a
// direct join to some member — cannot gain one at all. Ring expiry uses the
// same windows, so an expire-then-examine step can never touch a closed
// group; merge still checks and fails loudly if the invariant breaks.
//
// Open groups live on a doubly-linked list ordered by lastTime: every
// update sets a group's lastTime to the current (maximum) message time, so
// a move-to-tail keeps the list sorted and closure is a pop-from-head scan.
//
// The temporal model table is the one structure a stream could grow without
// bound (dead streams never expire by time alone), so it is capped by
// MaxStreams with least-recently-observed eviction. Evicting a stream that
// never speaks again is invisible — the model had no future joins to make.
// Evicting a stream that does return costs only a cold-started EWMA for it
// (the partition of past messages is unaffected); the eviction counter
// makes the approximation observable.
//
// Since PR 5 the implementation is split along the sharding boundary
// (see shard.go): RouterLocal owns the temporal models and per-router rule
// windows — everything whose join decisions depend only on one router's
// message stream — and Merger owns the groups, the closure list, and the
// cross-router ring. Incremental composes one of each inline; the sharded
// streaming engine runs N RouterLocals on worker goroutines feeding one
// Merger, and produces byte-identical output because the Merger executes
// the exact same operation sequence either way.
package grouping

import (
	"fmt"
	"time"

	"syslogdigest/internal/locdict"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
)

// DefaultMaxStreams bounds the temporal model table when the caller does
// not: ~256k live (template, location) streams, far above any of the
// paper's networks, small enough to cap memory during template churn.
const DefaultMaxStreams = 1 << 18

// IncrementalConfig tunes the incremental grouper: the batch Config plus
// the state bound.
type IncrementalConfig struct {
	Config
	// MaxStreams caps the temporal model table (<= 0: DefaultMaxStreams).
	MaxStreams int
	// ProvisionalHorizon enables two-tier emission when positive: a group
	// that outlives this much log time publishes a provisional record
	// (revision 0) and then revised/superseded records as it grows or
	// merges, alongside the unchanged final closure stream (see
	// provisional.go). Meant to be far below the closure horizon — seconds
	// against hours. Zero or negative disables the provisional tier.
	// Runtime knob only — never serialized; a restored engine applies its
	// own setting.
	ProvisionalHorizon time.Duration
}

// IncMetrics are the incremental grouper's optional observability handles;
// all are nil-safe, so the zero value records nothing.
type IncMetrics struct {
	MergeTemporal   *obs.Counter // group.merges.temporal
	MergeRule       *obs.Counter // group.merges.rule
	MergeCross      *obs.Counter // group.merges.cross
	RuleCandidates  *obs.Counter // group.rule.candidates_scanned
	RulePairs       *obs.Counter // group.rule.pairs_matched
	CrossCandidates *obs.Counter // group.cross.candidates_scanned
	UnresolvedLocs  *obs.Counter // group.rule.unresolved_locations
	OpenMessages    *obs.Gauge   // stream.state.messages
	OpenGroups      *obs.Gauge   // stream.state.groups
	Streams         *obs.Gauge   // stream.state.streams
	StreamEvictions *obs.Counter // stream.state.evictions
	PoolGets        *obs.Counter // stream.pool.pending.gets
	PoolPuts        *obs.Counter // stream.pool.pending.puts
	PoolLive        *obs.Gauge   // stream.pool.pending.live
}

// IncStats is a point-in-time snapshot of the incremental grouper.
type IncStats struct {
	OpenMessages    int // messages in not-yet-closed groups
	OpenGroups      int
	Streams         int // live temporal models
	StreamEvictions int
	TemporalMerges  int
	RuleMerges      int
	CrossMerges     int
	// Candidate-scan counters (cumulative): window entries examined and
	// matched by the rule pass, and examined by the cross pass. The
	// template index shrinks the examined counts without changing any
	// match.
	RuleCandidates  uint64
	RulePairs       uint64
	CrossCandidates uint64
	// UnresolvedLocs counts messages at locations the dictionary never
	// interned (see LocalStats).
	UnresolvedLocs uint64
}

// ClosedGroup is one finished group: its members in ascending Seq order,
// plus the stable identity assigned at the group's birth and the final
// revision number of that identity (both consumed by the two-tier emission
// path; a final-only consumer may ignore them).
type ClosedGroup struct {
	ID       uint64
	Revision int
	Members  []Message
}

// Incremental is the streaming counterpart of Grouper: feed it messages in
// nondecreasing time order via Observe and it returns groups as they close.
// It is the single-threaded composition of the two sharding halves — one
// RouterLocal and one Merger (see shard.go). Not safe for concurrent use.
type Incremental struct {
	local *RouterLocal
	merge *Merger
	pool  *PendingPool
	js    Joins
	s     *Shardable // built the halves; Restore builds them again
}

// NewIncremental builds an incremental grouper over the same knowledge a
// batch Grouper takes. dict may not be nil; rb may be nil.
func NewIncremental(dict *locdict.Dictionary, rb *rules.RuleBase, cfg IncrementalConfig) (*Incremental, error) {
	s, err := NewShardable(dict, rb, cfg)
	if err != nil {
		return nil, err
	}
	return &Incremental{s: s, local: s.NewLocal(0), merge: s.NewMerger(), pool: s.Pool()}, nil
}

// Pool is the grouper's Pending pool (see pool.go): runtime plumbing only,
// exposed for observability.
func (inc *Incremental) Pool() *PendingPool { return inc.pool }

// SetMetrics installs observability handles (may be called before or after
// the first Observe; gauges update on the next one).
func (inc *Incremental) SetMetrics(m IncMetrics) {
	inc.local.SetMetrics(LocalMetrics{
		Streams:         m.Streams,
		StreamEvictions: m.StreamEvictions,
		RuleCandidates:  m.RuleCandidates,
		RulePairs:       m.RulePairs,
		UnresolvedLocs:  m.UnresolvedLocs,
	})
	inc.merge.SetMetrics(MergeMetrics{
		MergeTemporal:   m.MergeTemporal,
		MergeRule:       m.MergeRule,
		MergeCross:      m.MergeCross,
		CrossCandidates: m.CrossCandidates,
		OpenMessages:    m.OpenMessages,
		OpenGroups:      m.OpenGroups,
	})
	inc.pool.SetMetrics(PoolMetrics{Gets: m.PoolGets, Puts: m.PoolPuts, Live: m.PoolLive})
}

// Watermark is the maximum message time observed so far.
func (inc *Incremental) Watermark() time.Time { return inc.merge.Watermark() }

// Horizon is the closure bound: a group closes once the watermark passes
// its newest member by more than this.
func (inc *Incremental) Horizon() time.Duration { return inc.merge.Horizon() }

// ActiveRules is the cumulative per-pair rule-merge tally (Figure 12),
// returned as a snapshot copy safe to keep or mutate.
func (inc *Incremental) ActiveRules() map[rules.PairKey]int { return inc.merge.ActiveRules() }

// Stats snapshots the grouper's state and merge counters.
func (inc *Incremental) Stats() IncStats {
	ls, ms := inc.local.Stats(), inc.merge.Stats()
	return IncStats{
		OpenMessages:    ms.OpenMessages,
		OpenGroups:      ms.OpenGroups,
		Streams:         ls.Streams,
		StreamEvictions: ls.Evictions,
		TemporalMerges:  ms.TemporalMerges,
		RuleMerges:      ms.RuleMerges,
		CrossMerges:     ms.CrossMerges,
		RuleCandidates:  ls.RuleCandidates,
		RulePairs:       ls.RulePairs,
		CrossCandidates: ms.CrossCandidates,
		UnresolvedLocs:  ls.UnresolvedLocs,
	}
}

// Observe ingests one message (nondecreasing time order required) and
// returns any groups the advanced watermark closed, oldest first. The
// returned slice is scratch valid until the next Observe or Drain; see
// Merger.Apply and Recycle.
func (inc *Incremental) Observe(m Message) ([]ClosedGroup, error) {
	// Validate before any state mutation: a time regression must leave the
	// models untouched, exactly as before the local/merge split.
	if inc.merge.started && m.Time.Before(inc.merge.watermark) {
		return nil, fmt.Errorf("grouping: incremental requires nondecreasing timestamps (got %v after watermark %v)",
			m.Time, inc.merge.watermark)
	}
	p := inc.pool.Get(m)
	if err := inc.local.Step(p, &inc.js); err != nil {
		p.Release() // Step refuses a message before touching any state
		return nil, err
	}
	out, err := inc.merge.Apply(p, &inc.js)
	if err != nil {
		return nil, err
	}
	inc.local.PublishMetrics()
	inc.pool.PublishLive()
	return out, nil
}

// Recycle hands fully-consumed closed groups' member buffers back for
// reuse; optional (see Merger.Recycle).
func (inc *Incremental) Recycle(closed []ClosedGroup) { inc.merge.Recycle(closed) }

// Drain closes every open group (oldest first) and clears the join windows
// and per-stream predecessors, so no later message can group with anything
// emitted here. The EWMA models and the watermark persist: interarrival
// knowledge survives a drain, and time still may not run backwards.
func (inc *Incremental) Drain() []ClosedGroup {
	out := inc.merge.Drain()
	inc.local.DrainWindows()
	inc.local.PublishMetrics()
	inc.pool.PublishLive()
	return out
}
