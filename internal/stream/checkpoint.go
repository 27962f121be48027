// Checkpoint capture and restore for the streaming engines (PR 6).
//
// Every engine shape serializes to one EngineState, so a snapshot taken at
// any shard count, in-process or clustered, restores at any other: the
// grouping layer reshards (or exactly restores) the router-local state, and
// the one dispatcher-level field (the next event ID) is shape-independent.
// Progress is the merger's (grouping.MergerState): a sharded engine snapshots
// after a sync, when its dispatcher's record equals the merger's, and
// restores it from there. Events already emitted but not yet collected by the
// caller are returned alongside the state — they are the caller's to
// persist, because dropping them would break exactly-once delivery across a
// restart.
package stream

import (
	"fmt"

	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
)

// EngineState is the serializable state of a streaming engine of any
// shape. Shard count, link kind, batch size, and metrics are runtime
// configuration and deliberately absent.
type EngineState struct {
	NextID int               `json:"next_id"`
	Inc    grouping.IncState `json:"inc"`
}

// State snapshots the serial engine through the one capture path every
// shape takes: its local as a self-contained part, stitched with the merger
// (grouping.CaptureParts). The extra return values mirror the sharded
// signature: uncollected events (always nil here — the serial engine hands
// events straight back from Observe) and tier-tagged updates not yet taken
// via TakeUpdates, which the caller must persist alongside the state to
// keep revision delivery exactly-once across a restart.
func (e *Engine) State() (EngineState, []event.Event, []event.Update, error) {
	inc, err := grouping.CaptureParts(e.merger, []grouping.LocalPartState{grouping.CaptureLocal(e.local)})
	if err != nil {
		return EngineState{}, nil, nil, err
	}
	return EngineState{NextID: e.em.nextID, Inc: inc}, nil, append([]event.Update(nil), e.upd...), nil
}

// Restore loads a snapshot taken by any engine shape at any shard count (a
// multi-shard snapshot merges into the single local). The engine must not
// have observed anything yet.
func (e *Engine) Restore(st EngineState) error {
	locals, mg, err := e.shardable.RestoreParts(st.Inc, 1, 0, nil)
	if err != nil {
		return err
	}
	e.local, e.merger = locals[0], mg
	e.em.nextID = st.NextID
	e.em.pub = e.em.book(e.Stats())
	return nil
}

// State synchronizes (flushing any partial batch and waiting until the
// merge stage has applied everything dispatched) and snapshots the engine:
// every link returns its shard's RouterLocal as a self-contained part, and
// the parts are stitched with the local merger into the EngineState the
// serial engine would write in the same logical state (see
// grouping.CaptureParts). It also returns copies of the events and
// tier-tagged updates emitted but not yet collected — the caller must
// persist them with the state; they stay queued here and still surface on
// the next collection from the live engine.
func (e *ShardedEngine) State() (EngineState, []event.Event, []event.Update, error) {
	if e.closed {
		return EngineState{}, nil, nil, fmt.Errorf("stream: sharded engine closed")
	}
	e.sync()
	if err := e.peekErr(); err != nil {
		return EngineState{}, nil, nil, err
	}
	// Quiet window: nothing steps a RouterLocal or the merger until the next
	// dispatch. An engine restored but never started still holds its locals.
	parts := make([]grouping.LocalPartState, 0, e.workers)
	for _, rl := range e.locals {
		parts = append(parts, grouping.CaptureLocal(rl))
	}
	for _, l := range e.links {
		part, err := l.snapshot()
		if err != nil {
			return EngineState{}, nil, nil, err
		}
		parts = append(parts, part)
	}
	inc, err := grouping.CaptureParts(e.merger, parts)
	if err != nil {
		return EngineState{}, nil, nil, err
	}
	st := EngineState{NextID: e.em.nextID, Inc: inc}
	e.mu.Lock()
	defer e.mu.Unlock()
	return st, append([]event.Event(nil), e.out...), append([]event.Update(nil), e.upd...), nil
}

// Restore loads a snapshot taken by any engine shape at any shard count
// into an engine that has observed nothing yet. When the shard counts match,
// every shard's state (model LRU order, per-shard bounds and counters)
// restores exactly; otherwise the router-local state reshards by the same
// router hash the dispatcher uses. The merger stays here; start hands each
// link its RouterLocal — a remote shard's part ships in its session
// handshake when the connections open, on the first Observe.
func (e *ShardedEngine) Restore(st EngineState) error {
	locals, mg, err := e.shardable.RestoreParts(st.Inc, e.workers, e.perShard, func(r string) int {
		return shardOf(r, e.workers)
	})
	if err != nil {
		return err
	}
	e.locals, e.merger = locals, mg
	for k, rl := range locals {
		e.localStats[k] = rl.Stats()
	}
	e.em.nextID = st.NextID
	e.em.pub = e.em.book(e.stats())
	e.dispatched = mg.Progress()
	return nil
}
