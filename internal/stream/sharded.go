// Sharded streaming engine: the multi-shard form of Engine.
//
// Topology (the caller is the dispatcher; merge is one goroutine):
//
//	caller ──sub-batch──▶ link 0 ─▶ shard 0 (RouterLocal) ──joins──▶
//	       ──sub-batch──▶ link 1 ─▶ shard 1 (RouterLocal) ──joins──▶  merge (Merger +
//	            ⋮                                              ⋮      emitter)
//	       ──sub-batch──▶ link N-1 ─▶ shard N-1            ──joins──▶
//
// Messages hash by router onto N shards. A shard owns the router-local half
// of the grouper state — temporal EWMA models and rule windows for its
// routers — and computes, per message, the join decisions (grouping.Joins).
// The merge stage owns everything global: the group partition, the closure
// list, the cross-router pass, event building, and event IDs. Because
// locdict location keys embed the router, every join decision a shard makes
// depends only on its own routers' subsequence, and because the merge stage
// applies those decisions in the original global order, the emitted events
// — set, scores, IDs, order — are byte-identical to the serial Engine at
// any shard count (see grouping/shard.go for the argument; the one caveat
// is the MaxStreams eviction bound, which is enforced per shard here and
// globally there).
//
// Where a shard runs is the shardLink's business, and the only thing that
// differs between the in-process engine (NewSharded: a goroutine behind
// channels, this file) and the cluster engine (NewCluster: an sdshard
// process behind a TCP connection, cluster.go). Dispatch, merge, emission,
// synchronization, statistics and checkpointing are this one core.
//
// Coordination is batch punctuation: the dispatcher accumulates up to
// BatchSize messages, partitioned by router as they arrive, and sends every
// link its (possibly empty) sub-batch; each link answers with exactly one
// result per batch carrying the join decisions in order. The merge stage
// reads one result per link per batch and replays the batch's original
// interleaving from the order vector. Every queue is bounded, so a slow
// merge backpressures the shards and a slow shard backpressures the
// dispatcher — memory in flight is O(shards × depth × batch).
//
// Progress: the engine keeps two records (grouping.Progress) and no other.
// The dispatcher's runs ahead — it refuses a time regression the moment it
// is observed — and the Merger's is the engine's watermark: group closure
// tests against it exactly as in the serial engine, so closure (and thus
// emission) decisions are unchanged, and a snapshot, taken after a sync,
// stores it once. Shards keep none; a batch's punctuation (the dispatcher's
// time when it was cut) never leaves the process.
package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
)

const (
	// DefaultShardBatch is the dispatch batch size: large enough to
	// amortize link handoffs, small enough that a live feed's events
	// surface promptly (a batch also flushes on Drain and on any state
	// query).
	DefaultShardBatch = 256
	// shardQueueDepth bounds each queue in batches; total in-flight
	// memory is shards × depth × batch messages.
	shardQueueDepth = 4
	// freeListDepth sizes the recycling lists to everything that can be in
	// flight on one path (a full queue, one item being consumed, one being
	// filled), so steady state never drops a buffer to the GC.
	freeListDepth = shardQueueDepth + 2
	// MaxShardWorkers caps the shard count (the order vector stores shard
	// indexes in a byte).
	MaxShardWorkers = 256
)

// ShardMetrics are one shard's observability handles (nil-safe).
type ShardMetrics struct {
	Pushed    *obs.Counter // stream.shard.<k>.pushed
	Streams   *obs.Gauge   // stream.shard.<k>.streams
	Evictions *obs.Counter // stream.shard.<k>.evictions
}

// ShardedMetrics extend Metrics with the sharded topology's handles.
// The embedded Metrics keep their serial meanings: stream.emitted,
// stream.emit_latency_seconds and stream.watermark_unix_seconds are
// maintained by the merge stage, which also publishes the grouper's book
// (Metrics.Grouping) once per applied batch, as the serial engine does once
// per Observe. The per-shard handles advance at the same moment, from the
// LocalStats every link result carries.
type ShardedMetrics struct {
	Metrics
	MergeLag *obs.Histogram // stream.merge.lag_seconds
	Shards   []ShardMetrics // index = shard; missing entries record nothing
}

func (m *ShardedMetrics) shard(k int) ShardMetrics {
	if k < len(m.Shards) {
		return m.Shards[k]
	}
	return ShardMetrics{}
}

// MergeLagBounds are histogram bounds for stream.merge.lag_seconds: how
// far (in log time) the merge stage trails the newest dispatched message.
// Steady state is under one batch of log time; hours mean the merge stage
// is the bottleneck.
func MergeLagBounds() []float64 {
	return []float64{0.001, 0.01, 0.1, 1, 10, 60, 300, 1800, 3600, 14400}
}

// shardBatch is one dispatch to one shard. The sub-batch carries pooled
// Pending records (acquired by the dispatcher, consumed by Merger.Apply
// downstream): shipping 8-byte pointers instead of Message values keeps
// the per-message cost of an in-process hop to one struct copy — the same
// pool.Get copy the serial engine pays. A link may read msgs until it has
// produced the batch's result, and must not write it.
type shardBatch struct {
	msgs  []*grouping.Pending // this shard's sub-batch, in global order
	drain bool                // drop join windows after the batch
}

// shardItem is one message's join decisions, as pointers to the records of
// the predecessors it joins. Rule predecessors live in the owning
// shardResult's rules arena as the window [rs, re) — one shared backing per
// result instead of one slice per item.
type shardItem struct {
	temporal *grouping.Pending
	rs, re   int32
}

// shardResult is one shard's answer to one batch — exactly one per batch,
// even when the sub-batch was empty: one item per message, in order, plus
// the shard's cumulative stats after the batch. err fails the engine; the
// items of an erred result are not applied.
type shardResult struct {
	items []shardItem
	rules []*grouping.Pending // arena backing the items' [rs, re) windows
	stats grouping.LocalStats
	err   error
}

// shardLink is the hop between the core and one shard's RouterLocal. The
// core is written against pointer decisions only; how a decision crosses
// the hop — a pointer through a channel, a Seq delta in a wire frame — is
// the link's concern.
type shardLink interface {
	// send ships the next sub-batch (empty included). It may block: the
	// link is the backpressure boundary. Dispatcher goroutine only.
	send(b shardBatch)
	// recv blocks for the result of the oldest unanswered send; sub is that
	// send's msgs again (the merge stage holds them anyway, and a link that
	// rebuilds pointers from Seqs needs the records). The result's slices
	// are the link's, valid until its next recv. Once a link has broken for
	// good it returns an erred result immediately, every time. Merge
	// goroutine only.
	recv(sub []*grouping.Pending) shardResult
	// closed tells the link these groups' members can no longer be named by
	// a decision, before their records recycle. Merge goroutine only.
	closed(cgs []grouping.ClosedGroup)
	// snapshot captures the shard's RouterLocal as of every batch sent;
	// callable only in the post-sync quiet window.
	snapshot() (grouping.LocalPartState, error)
	// close releases the shard once the merge goroutine has exited.
	close()
}

// linkMaker opens shard k's link when the engine starts. local is the
// shard's RouterLocal from a checkpoint restore, nil on a fresh engine.
type linkMaker func(e *ShardedEngine, k int, local *grouping.RouterLocal) shardLink

type ctrlKind int

const (
	ctrlNone  ctrlKind = iota
	ctrlSync           // ack after the batch is fully applied
	ctrlDrain          // then force-close every open group, then ack
)

// batch is one dispatch unit on its way round the engine: filled by
// Observe, sent to the links sub-batch by sub-batch, applied by the merge
// stage, and recycled through the free list with its backings intact.
type batch struct {
	subs  [][]*grouping.Pending // subs[k]: shard k's messages, in global order
	order []uint8               // order[i]: the shard holding the i-th message
	punct time.Time             // the dispatcher's progress when the batch was cut
	kind  ctrlKind
}

// ShardedEngine is the multi-shard counterpart of Engine, with the same
// external contract: Observe messages in nondecreasing time order, receive
// closed events back. The only visible difference is delivery timing —
// events surface on the Observe call after their batch is applied rather
// than the exact call that closed them; the event sequence itself (set,
// scores, IDs, order) is identical.
//
// Not safe for concurrent use by multiple callers (one dispatcher). Close
// releases the merge goroutine and the links; an unclosed engine leaks them.
type ShardedEngine struct {
	shardable *grouping.Shardable
	workers   int
	perShard  int // MaxStreams split evenly, so total model state keeps the serial cap
	batchSize int
	newLink   linkMaker
	met       ClusterMetrics

	// Dispatcher state (caller goroutine). Messages are partitioned at
	// Observe time: each one is wrapped in a pooled Pending and appended
	// straight to its shard's sub-batch in cur, with the order vector
	// recording the interleaving.
	running    bool
	closed     bool
	dispatched grouping.Progress // newest message observed; the Merger's lags it
	cur        *batch

	// locals holds a restored engine's RouterLocals until start hands each
	// to its link.
	locals    []*grouping.RouterLocal
	links     []shardLink
	mergeIn   chan *batch
	free      chan *batch // applied batches on their way back to the dispatcher
	ack       chan struct{}
	mergeDone chan struct{}

	maxDispatched atomic.Int64 // unixnano punctuation of the newest dispatched batch

	// Merge-goroutine state. The caller may touch these only before start
	// or in the quiet window after a sync/drain ack and before the next
	// dispatch.
	merger     *grouping.Merger
	em         emitter
	localStats []grouping.LocalStats // each shard's latest

	mu  sync.Mutex
	out []event.Event  // emitted, awaiting collection; backing reused (see takeQueue)
	upd []event.Update // tier-tagged updates awaiting collection
	err error
}

// NewSharded builds a sharded engine over the same knowledge as New, its
// shards in-process goroutines. workers must be in [1, MaxShardWorkers];
// the goroutines start lazily on the first Observe.
func NewSharded(dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config, workers int) (*ShardedEngine, error) {
	if workers < 1 || workers > MaxShardWorkers {
		return nil, fmt.Errorf("stream: worker count %d out of range [1, %d]", workers, MaxShardWorkers)
	}
	return newSharded(dict, rb, cfg, workers, newChanLink)
}

func newSharded(dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config, workers int, newLink linkMaker) (*ShardedEngine, error) {
	s, err := grouping.NewShardable(dict, rb, cfg.Grouping)
	if err != nil {
		return nil, err
	}
	e := &ShardedEngine{
		shardable:  s,
		workers:    workers,
		perShard:   (s.MaxStreams() + workers - 1) / workers,
		batchSize:  DefaultShardBatch,
		newLink:    newLink,
		merger:     s.NewMerger(),
		em:         newEmitter(cfg, s.Pool()),
		localStats: make([]grouping.LocalStats, workers),
	}
	e.cur = e.newBatch()
	return e, nil
}

func (e *ShardedEngine) newBatch() *batch {
	return &batch{subs: make([][]*grouping.Pending, e.workers)}
}

// SetBatchSize overrides the dispatch batch size (<= 0: DefaultShardBatch);
// batch boundaries never affect output, only handoff amortization and
// delivery timing. Must precede the first Observe.
func (e *ShardedEngine) SetBatchSize(n int) {
	if e.running {
		return
	}
	if n <= 0 {
		n = DefaultShardBatch
	}
	e.batchSize = n
}

// SetShardedMetrics installs the sharded metric set (wire-level handles
// absent).
func (e *ShardedEngine) SetShardedMetrics(m ShardedMetrics) {
	e.SetClusterMetrics(ClusterMetrics{ShardedMetrics: m})
}

// SetClusterMetrics installs the full metric set. It is ignored once the
// engine has dispatched anything (a freshly restored engine has not): the
// merge goroutine and the links then read the handles with no lock. Nothing
// else hangs on the moment — the grouper's series publish from its tallies.
func (e *ShardedEngine) SetClusterMetrics(m ClusterMetrics) {
	if !e.idle() {
		return
	}
	e.met = m
	e.em.setMetrics(m.Metrics)
}

// idle reports that nothing was ever dispatched and nothing waits to be:
// no goroutine exists, and the merger and locals (fresh or restored) are
// the caller's to read.
func (e *ShardedEngine) idle() bool { return !e.running && len(e.cur.order) == 0 }

// start opens the links and launches the merge goroutine.
func (e *ShardedEngine) start() {
	e.running = true
	e.links = make([]shardLink, e.workers)
	for k := range e.links {
		var local *grouping.RouterLocal
		if e.locals != nil {
			local = e.locals[k]
		}
		e.links[k] = e.newLink(e, k, local)
	}
	e.locals = nil
	e.mergeIn = make(chan *batch, shardQueueDepth)
	e.free = make(chan *batch, freeListDepth)
	e.ack = make(chan struct{}, 1)
	e.mergeDone = make(chan struct{})
	go e.mergeLoop()
}

// shardOf hashes a router name onto a shard (FNV-1a).
func shardOf(router string, workers int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(router); i++ {
		h ^= uint64(router[i])
		h *= 1099511628211
	}
	return int(h % uint64(workers))
}

// Observe ingests one message (nondecreasing Time required) and returns
// the events emitted since the last call (nil when none). Events for a
// message surface once its batch flushes — at the latest BatchSize
// messages later, or at the next Drain or state query.
func (e *ShardedEngine) Observe(m Message) ([]event.Event, error) {
	if err := e.peekErr(); err != nil {
		return nil, err
	}
	if e.closed {
		return nil, fmt.Errorf("stream: sharded engine closed")
	}
	// Same contract (and message) as the serial engine: a regression is
	// rejected before touching any state.
	if err := e.dispatched.Check(m.Time); err != nil {
		return nil, err
	}
	e.dispatched.Advance(m.Time)
	// Partition on arrival: wrap the message in a pooled record (the one
	// per-message struct copy, same as the serial engine's pool.Get) and
	// append the pointer to its shard's sub-batch. The record's pipeline
	// reference travels with it and is consumed by Merger.Apply.
	p := e.shardable.Pool().Get(m)
	k := shardOf(m.Router, e.workers)
	b := e.cur
	b.subs[k] = append(b.subs[k], p)
	b.order = append(b.order, uint8(k))
	if len(b.order) >= e.batchSize {
		e.dispatch(ctrlNone)
	}
	return e.collect(), nil
}

// dispatch hands every link its sub-batch (empty included — one result
// per shard per batch is the synchronization invariant), queues the batch
// for the merge stage, and takes a recycled one to fill next.
func (e *ShardedEngine) dispatch(kind ctrlKind) {
	if !e.running {
		e.start()
	}
	b := e.cur
	b.punct, b.kind = e.dispatched.Time(), kind
	if e.dispatched.Started() {
		e.maxDispatched.Store(b.punct.UnixNano())
	}
	for k, l := range e.links {
		l.send(shardBatch{msgs: b.subs[k], drain: kind == ctrlDrain})
	}
	e.mergeIn <- b
	select {
	case e.cur = <-e.free:
	default:
		e.cur = e.newBatch()
	}
}

// mergeLoop is the merge stage: per batch it reads one result from every
// link, replays the original interleaving, applies each message's join
// decisions to the global Merger, and emits closed groups as events. After
// a failure it keeps consuming (so the dispatcher never blocks) but
// releases the records instead of applying them; the error surfaces on the
// caller's next Observe.
func (e *ShardedEngine) mergeLoop() {
	defer close(e.mergeDone)
	var js grouping.Joins
	results := make([]shardResult, e.workers)
	idx := make([]int, e.workers)
	for b := range e.mergeIn {
		failed := e.peekErr() != nil
		for k, l := range e.links {
			res := l.recv(b.subs[k])
			if res.err == nil && len(res.items) != len(b.subs[k]) {
				res.err = fmt.Errorf("stream: shard %d answered %d messages of %d", k, len(res.items), len(b.subs[k]))
			}
			if res.err != nil && !failed {
				e.fail(res.err)
				failed = true
			}
			results[k], idx[k] = res, 0
		}
		applied := false
		for _, k := range b.order {
			i := idx[k]
			idx[k]++
			p := b.subs[k][i]
			if failed {
				p.Release()
				continue
			}
			it := results[k].items[i]
			js.Temporal = it.temporal
			js.Rules = results[k].rules[it.rs:it.re:it.re]
			closed, err := e.merger.Apply(p, &js)
			if err != nil {
				e.fail(err)
				failed = true
				p.Release() // Apply consumes the reference only on success
				continue
			}
			e.emit(closed)
			applied = true
		}
		if applied {
			e.met.Watermark.Set(float64(e.merger.Progress().Time().UnixNano()) / 1e9)
		}
		e.publishShards(results)
		if !b.punct.IsZero() && !failed && len(b.order) > 0 {
			lag := time.Duration(e.maxDispatched.Load() - b.punct.UnixNano())
			e.met.MergeLag.Observe(lag.Seconds())
		}
		if !failed {
			e.met.PunctApplied.Inc()
			if b.kind == ctrlDrain {
				e.emit(e.merger.Drain())
			}
		}
		// Once per batch, from the shards' plain tallies: per-message atomic
		// adds on handles shared across shards were measurable contention.
		// Every link has answered this batch and the merger is done with it
		// (a drain included), so after a sync or drain batch — the links
		// parked, nothing in flight — the book published here is exact.
		e.em.publish(e.stats)
		kind := b.kind
		for k := range b.subs {
			clear(b.subs[k])
			b.subs[k] = b.subs[k][:0]
		}
		b.order = b.order[:0]
		select {
		case e.free <- b:
		default:
		}
		if kind != ctrlNone {
			e.ack <- struct{}{}
		}
	}
}

// publishShards records each shard's latest cumulative LocalStats (every
// link result carries them) and advances the per-shard stream.shard.<k>.*
// series; the global series that aggregate the shards publish from the
// recorded stats with the rest of the grouper's book (emitter.publish). A
// restored engine starts from the restored tallies. Merge goroutine only.
func (e *ShardedEngine) publishShards(results []shardResult) {
	for k := range results {
		res := &results[k]
		if res.err != nil {
			continue
		}
		sm, prev := e.met.shard(k), e.localStats[k]
		sm.Pushed.Add(uint64(len(res.items)))
		sm.Streams.Set(float64(res.stats.Streams))
		advance(sm.Evictions, uint64(prev.Evictions), uint64(res.stats.Evictions))
		e.localStats[k] = res.stats
	}
}

// emit runs the shared emitter over what the last Merger step produced and
// queues the results for the caller to collect; the closed groups' member
// buffers go back to the Merger once the events are built.
func (e *ShardedEngine) emit(closed []grouping.ClosedGroup) {
	gus := e.merger.TakeUpdates()
	if len(closed) == 0 && len(gus) == 0 {
		return
	}
	if len(closed) > 0 {
		for _, l := range e.links {
			l.closed(closed)
		}
	}
	e.mu.Lock()
	e.em.emit(gus, closed, e.merger.Progress().Time(), &e.out, &e.upd)
	e.mu.Unlock()
	e.merger.Recycle(closed)
}

// TakeUpdates takes the tier-tagged updates queued since the last call, in
// emission order. Like Observe's event delivery, updates surface once their
// batch is applied. Always empty when the provisional tier is off.
func (e *ShardedEngine) TakeUpdates() []event.Update {
	e.mu.Lock()
	defer e.mu.Unlock()
	return takeQueue(&e.upd)
}

// collect takes the events emitted since the last collection.
func (e *ShardedEngine) collect() []event.Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	return takeQueue(&e.out)
}

// takeQueue empties a collection queue. The caller gets a fresh exact-size
// slice (it may retain the elements indefinitely); the queue's backing
// array is cleared and truncated for reuse, so closure bursts grow it to
// their high-water mark exactly once.
func takeQueue[T any](q *[]T) []T {
	if len(*q) == 0 {
		return nil
	}
	out := make([]T, len(*q))
	copy(out, *q)
	clear(*q)
	*q = (*q)[:0]
	return out
}

func (e *ShardedEngine) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *ShardedEngine) peekErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// sync flushes the partial batch and blocks until the merge stage has
// applied everything dispatched. Until the next dispatch the caller has
// exclusive (happens-before via the ack) access to the Merger and the
// shard stats snapshots. An idle engine is already there.
func (e *ShardedEngine) sync() {
	if e.idle() {
		return
	}
	e.dispatch(ctrlSync)
	<-e.ack
}

// Drain flushes the partial batch, drops every shard's join windows,
// force-closes every open group, and returns all uncollected events, oldest
// first. Temporal models and watermarks persist, as in the serial engine.
func (e *ShardedEngine) Drain() []event.Event {
	if e.idle() && e.merger.Stats().OpenMessages == 0 {
		return nil
	}
	e.dispatch(ctrlDrain)
	<-e.ack
	return e.collect()
}

// Close flushes nothing, drops nothing, and stops the merge goroutine and
// the links; call Drain first if open groups should still emit. The engine
// rejects further use.
func (e *ShardedEngine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if !e.running {
		return
	}
	// The merge goroutine consumes every result of every batch still queued
	// before it exits, so no link is left blocked on delivery.
	close(e.mergeIn)
	<-e.mergeDone
	for _, l := range e.links {
		l.close()
	}
}

// Progress is the dispatcher's record, the maximum message time observed —
// the serial engine's watermark after the same Observe calls. The merge
// stage's, which trails it by the batches in flight, shows in
// stream.watermark_unix_seconds.
func (e *ShardedEngine) Progress() grouping.Progress { return e.dispatched }

// ActiveRules synchronizes and returns the merge stage's cumulative
// per-pair rule-merge tally. The map is a snapshot copy; the caller may
// keep or mutate it freely.
func (e *ShardedEngine) ActiveRules() map[rules.PairKey]int {
	e.sync()
	return e.merger.ActiveRules()
}

// Stats synchronizes (flushing the partial batch) and snapshots the
// grouper state and merge counters across all shards.
func (e *ShardedEngine) Stats() grouping.IncStats {
	e.sync()
	return e.stats()
}

// stats reads the merger and the shards' recorded stats as they stand: the
// merge goroutine's view, or the caller's in a quiet window.
func (e *ShardedEngine) stats() grouping.IncStats {
	return grouping.SumStats(e.merger.Stats(), e.localStats...)
}

// Pending is the number of messages in not-yet-closed groups (synchronizes
// first, so nothing is in flight when it counts).
func (e *ShardedEngine) Pending() int { return e.Stats().OpenMessages }

// chanLink is the in-process shardLink: a goroutine stepping its own
// RouterLocal, fed and drained through bounded channels. Decisions cross
// as the pointers Step produced, so the hop adds no per-message work.
type chanLink struct {
	local *grouping.RouterLocal
	in    chan shardBatch
	out   chan shardResult
	free  chan shardResult // applied results' backings, on their way back to run
	last  shardResult      // what the previous recv handed the merge stage
	done  chan struct{}
}

func newChanLink(e *ShardedEngine, _ int, local *grouping.RouterLocal) shardLink {
	if local == nil {
		local = e.shardable.NewLocal(e.perShard)
	}
	l := &chanLink{
		local: local,
		in:    make(chan shardBatch, shardQueueDepth),
		out:   make(chan shardResult, shardQueueDepth),
		free:  make(chan shardResult, freeListDepth),
		done:  make(chan struct{}),
	}
	go l.run()
	return l
}

// run steps every sub-batch through the RouterLocal and ships the join
// decisions, in recycled backings, to the merge stage.
func (l *chanLink) run() {
	defer close(l.done)
	var js grouping.Joins
	for b := range l.in {
		var res shardResult
		select {
		case res = <-l.free:
		default:
		}
		for _, p := range b.msgs {
			if err := l.local.Step(p, &js); err != nil {
				res.err = err
				break
			}
			it := shardItem{temporal: js.Temporal, rs: int32(len(res.rules))}
			res.rules = append(res.rules, js.Rules...)
			it.re = int32(len(res.rules))
			res.items = append(res.items, it)
		}
		if b.drain {
			l.local.DrainWindows()
		}
		res.stats = l.local.Stats()
		l.out <- res
	}
}

func (l *chanLink) send(b shardBatch) { l.in <- b }

func (l *chanLink) recv([]*grouping.Pending) shardResult {
	// The previous result is applied by now: its backings go back to run.
	// The send never blocks on a list sized to everything in flight, and a
	// dropped buffer would only cost an allocation.
	clear(l.last.items)
	clear(l.last.rules)
	select {
	case l.free <- shardResult{items: l.last.items[:0], rules: l.last.rules[:0]}:
	default:
	}
	l.last = <-l.out
	return l.last
}

func (l *chanLink) closed([]grouping.ClosedGroup) {}

// snapshot reads the RouterLocal directly: in the quiet window run is
// parked on its input channel.
func (l *chanLink) snapshot() (grouping.LocalPartState, error) {
	return grouping.CaptureLocal(l.local), nil
}

func (l *chanLink) close() {
	close(l.in)
	<-l.done
}
