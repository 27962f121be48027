// Pending recycling: the steady-state streaming path creates one Pending
// per message and drops it once its group closes and every window slot that
// referenced it has expired. Allocating (and GC-scanning) those records was
// the single largest cost of the sharded engine (see EXPERIMENTS.md, PR 8);
// this file recycles them through a reference-counted pool instead.
//
// Ownership protocol — who holds a reference to a Pending:
//
//   - the pipeline: Get returns a record with one reference, consumed by
//     Merger.Apply (Apply takes ownership of the caller's reference);
//   - its group: +1 while the record sits on an open group's member list,
//     released by closeGroup;
//   - its temporal model: +1 while it is a stream's last-message pointer,
//     released on overwrite, eviction, or DrainWindows;
//   - each window ring slot (rule windows, cross ring): +1 per slot,
//     released by popFront.
//
// A join decision (Joins.Temporal, Joins.Rules) deliberately carries no
// reference of its own: the closure-horizon invariant guarantees the join
// target's group reference outlives every in-flight decision that names it
// (a decision pairs messages at most horizon apart, and a group only closes
// once the watermark passes its newest member by more than the horizon), so
// the group reference already pins the record. The counts are atomic
// because the sharded engine releases model and rule-ring references on
// shard goroutines while the merge goroutine releases group and cross-ring
// references.
//
// Pools are runtime plumbing only: they are never serialized (checkpoint
// state is pool-independent), and records restored from a checkpoint are
// plain GC-managed allocations (owner == nil) — a restored engine refills
// its pool with fresh records as the restored ones retire, so no record
// ever crosses a restore.
package grouping

import (
	"sync"
	"sync/atomic"
)

// PendingPool recycles Pending records for one engine. Safe for concurrent
// use (the sharded engine's shard and merge goroutines share it). The zero
// value is not usable; engines get one from their Shardable.
type PendingPool struct {
	pool       sync.Pool
	gets, puts atomic.Uint64 // records handed out, records returned
}

// PoolStats snapshots a pool's tallies. They count from the pool's creation
// and are never checkpointed (pools are runtime plumbing).
type PoolStats struct {
	Gets, Puts uint64
	Live       int64 // handed out and not yet returned
}

func newPendingPool() *PendingPool {
	pp := &PendingPool{}
	pp.pool.New = func() any { return new(Pending) }
	return pp
}

// Get acquires a recycled (or fresh) record wrapping m, holding one
// pipeline reference.
func (pp *PendingPool) Get(m Message) *Pending {
	p := pp.pool.Get().(*Pending)
	p.msg = m
	p.refs.Store(1)
	p.owner = pp
	pp.gets.Add(1)
	return p
}

// put returns a fully released record. The message and group pointer are
// cleared; grp is deliberately left alone — the record's last reference is
// often dropped by closeGroup while it is still iterating a member list
// backed by this record's grp.inline array, so zeroing it here would pull
// the backing out from under the caller. Apply resets the stale grp fields
// when the record starts its next life (stale inline pointers only pin
// other pooled records, which the pool keeps alive anyway).
func (pp *PendingPool) put(p *Pending) {
	p.msg = Message{}
	p.g = nil
	p.owner = nil
	pp.puts.Add(1)
	pp.pool.Put(p)
}

// Stats reads the tallies. Puts is read first: a record is handed out
// before it can come back, so with the pool in use on other goroutines Live
// may run ahead of the truth but is never negative; at a quiet point the
// three are exact.
func (pp *PendingPool) Stats() PoolStats {
	puts := pp.puts.Load()
	gets := pp.gets.Load()
	return PoolStats{Gets: gets, Puts: puts, Live: int64(gets - puts)}
}

// ref adds one reference.
func (p *Pending) ref() { p.refs.Add(1) }

// unref drops one reference; the last drop returns a pooled record to its
// pool. Records built by NewPending (tests, checkpoint restore) have no
// owner and are left to the GC.
func (p *Pending) unref() {
	if p.refs.Add(-1) == 0 && p.owner != nil {
		p.owner.put(p)
	}
}
