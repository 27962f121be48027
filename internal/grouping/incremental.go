// Incremental grouping: the same three passes as Shardable.Group, run one
// message at a time over bounded state, with watermark-driven group closure.
//
// The batch reference sorts a whole batch and scans it with a union-find; this
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
// cross-router ring. This package composes neither: the serial streaming
// engine steps one of each inline, the sharded one runs N RouterLocals on
// worker goroutines feeding one Merger, and both produce byte-identical
// output because the Merger executes the exact same operation sequence
// either way.
package grouping

import "time"

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

// IncStats is the incremental grouper's book at one point in time: its
// merger's and its locals' summed (see LocalStats and MergeStats for what
// each tally counts), and its Pending pool's. An engine's Stats leaves Pool
// zero: a pool counts from its own creation and starts over in a restored
// engine, while the rest of the book carries across the restore.
type IncStats struct {
	MergeStats
	LocalStats
	Pool PoolStats
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

// SumStats assembles the grouper's snapshot from a merger's and its locals'.
// Every engine shape reports its Stats through it.
func SumStats(ms MergeStats, locals ...LocalStats) IncStats {
	st := IncStats{MergeStats: ms}
	for _, ls := range locals {
		st.add(ls)
	}
	return st
}
