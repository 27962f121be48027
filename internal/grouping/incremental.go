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

// IncStats is a point-in-time snapshot of the incremental grouper: its
// merger's stats and its locals' summed (see LocalStats for what the
// cumulative ones count).
type IncStats struct {
	MergeStats
	Streams         int // live temporal models
	StreamEvictions int
	RuleCandidates  uint64
	RulePairs       uint64
	UnresolvedLocs  uint64
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
	return &Incremental{s: s, local: s.NewLocal(0), merge: s.NewMerger()}, nil
}

// Pool is the grouper's Pending pool (see pool.go): runtime plumbing only,
// exposed for its tallies.
func (inc *Incremental) Pool() *PendingPool { return inc.s.pool }

// Watermark is the maximum message time observed so far.
func (inc *Incremental) Watermark() time.Time { return inc.merge.Watermark() }

// Horizon is the closure bound: a group closes once the watermark passes
// its newest member by more than this.
func (inc *Incremental) Horizon() time.Duration { return inc.merge.Horizon() }

// ActiveRules is the cumulative per-pair rule-merge tally (Figure 12),
// returned as a snapshot copy safe to keep or mutate.
func (inc *Incremental) ActiveRules() map[rules.PairKey]int { return inc.merge.ActiveRules() }

// Stats snapshots the grouper's state and merge counters.
func (inc *Incremental) Stats() IncStats { return SumStats(inc.merge.Stats(), inc.local.Stats()) }

// SumStats assembles the grouper's snapshot from a merger's and its locals'.
func SumStats(ms MergeStats, locals ...LocalStats) IncStats {
	st := IncStats{MergeStats: ms}
	for _, ls := range locals {
		st.Streams += ls.Streams
		st.StreamEvictions += ls.Evictions
		st.RuleCandidates += ls.RuleCandidates
		st.RulePairs += ls.RulePairs
		st.UnresolvedLocs += ls.UnresolvedLocs
	}
	return st
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
	p := inc.s.pool.Get(m)
	if err := inc.local.Step(p, &inc.js); err != nil {
		p.Release() // Step refuses a message before touching any state
		return nil, err
	}
	out, err := inc.merge.Apply(p, &inc.js)
	if err != nil {
		return nil, err
	}
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
	return out
}
