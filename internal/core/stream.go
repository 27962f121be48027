package core

import (
	"fmt"
	"time"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/event"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
)

// Default StreamerOptions values.
const (
	// DefaultReorderTolerance is how far behind the newest arrival a
	// message may lag and still be sorted into place. Collector feeds are
	// only approximately time-ordered across routers; a couple of seconds
	// absorbs the usual transport skew.
	DefaultReorderTolerance = 2 * time.Second
	// DefaultReorderCap bounds the reorder buffer; overflow releases the
	// oldest buffered message early rather than growing without bound.
	DefaultReorderCap = 8192
)

// StreamerOptions are a streaming run's whole shape — reorder buffering,
// state bound, engine, delivery tiers — and the only place it is decided:
// nothing is inherited from the Digester or the knowledge base's Params.
// All of it is runtime configuration, never serialized (a checkpoint
// restores under the restoring run's own options), and the engine and tier
// choices never change the final event stream.
type StreamerOptions struct {
	// ReorderTolerance is the reorder-buffer hold time: a message is
	// released to the engine once the newest arrival is at least this much
	// ahead of it, so any two messages whose timestamps disagree with their
	// arrival order by less than the tolerance are re-sorted. Messages
	// arriving later than an already-released timestamp are dropped (and
	// counted), never an error. 0 means DefaultReorderTolerance; negative
	// means no buffering (strict arrival order, any regression drops).
	ReorderTolerance time.Duration
	// ReorderCap caps buffered messages (<= 0: DefaultReorderCap).
	ReorderCap int
	// MaxStreams caps the engine's temporal-model table
	// (<= 0: grouping.DefaultMaxStreams).
	MaxStreams int
	// StreamWorkers selects the in-process engine: <= 1 the serial engine,
	// N > 1 the sharded engine with N router-hashed workers feeding one
	// merge stage. Output is byte-identical at any setting; only throughput
	// and event delivery timing change.
	StreamWorkers int
	// ShardAddrs, when non-empty, selects the cluster engine instead: one
	// remote shard process per address (repeat an address to host several
	// shards in one process), reached over the shard wire protocol, merged
	// locally; StreamWorkers is then unused. Output stays byte-identical to
	// the serial engine at any address count.
	ShardAddrs []string
	// ProvisionalHorizon, when positive, turns on two-tier emission: an open
	// group that outlives this much log time publishes a provisional record
	// (revision 0), then revised or superseded records as it grows or
	// merges, and results carry these tier-tagged Updates alongside the
	// final Events. Meant to be seconds against the hours-scale closure
	// horizon. Zero or negative: final records only. The final stream is
	// byte-identical at any setting.
	ProvisionalHorizon time.Duration
}

// Streamer is the continuous front-end of the online pipeline: a bounded
// reorder buffer feeding the incremental engine one augmented message at a
// time. Events return from Push as soon as the engine's watermark proves
// them complete — there is no batch boundary, no quiet-gap wait, and memory
// holds only open-window state, not the feed.
//
// The engine behind it is the serial stream.Engine or, with StreamWorkers
// > 1 or ShardAddrs set, stream.ShardedEngine over in-process or TCP
// shard links. Results carry Events (and Updates) only — Messages is nil,
// since messages do not pass through in batches.
//
// Not safe for concurrent use; callers serialize (the cmds push under one
// mutex). A sharded engine owns goroutines and connections: Close the
// streamer when the feed ends.
type Streamer struct {
	d    *Digester
	opts StreamerOptions

	eng        streamEngine
	engMetrics stream.ClusterMetrics

	buf      reorderHeap
	arrivals uint64 // heap tiebreak: preserves arrival order at equal times
	seq      int    // dense engine sequence, assigned at release
	pushed   uint64 // total Push calls, drops included (replay resume offset)

	// started and maxSeen are the reorder buffer's own high-water mark, the
	// newest arrival. What has been released is the engine's progress, read
	// from the engine (late).
	started bool
	maxSeen time.Time

	// carry holds events recovered from a checkpoint that the snapshotted
	// run had emitted into the engine's collection queue but the caller had
	// not yet received; they surface on the next Push or Flush, preserving
	// exactly-once delivery across a restart. carryUpd is the same for
	// tier-tagged updates, keeping (EventID, Revision) delivery
	// exactly-once too.
	carry    []event.Event
	carryUpd []event.Update

	mBuffered   *obs.Gauge   // stream.buffered (reorder buffer depth)
	mPushed     *obs.Counter // stream.pushed
	mReordered  *obs.Counter // stream.reordered
	mDropped    *obs.Counter // stream.dropped.late
	mDroppedOvf *obs.Counter // stream.dropped.overflow
}

// NewStreamerWith wraps a digester with explicit options (the zero value is
// the serial engine behind the default reorder buffer, final records only).
func NewStreamerWith(d *Digester, opts StreamerOptions) *Streamer {
	if opts.ReorderTolerance == 0 {
		opts.ReorderTolerance = DefaultReorderTolerance
	}
	if opts.ReorderTolerance < 0 {
		opts.ReorderTolerance = 0
	}
	if opts.ReorderCap <= 0 {
		opts.ReorderCap = DefaultReorderCap
	}
	return &Streamer{d: d, opts: opts}
}

// Instrument publishes the streamer's metrics into reg: the reorder-buffer
// counters (stream.pushed, stream.reordered, stream.dropped.late,
// stream.buffered), the engine's emission metrics (stream.emitted,
// stream.emit_latency_seconds, stream.watermark_unix_seconds), its state
// gauges (stream.state.{messages,groups,streams}, stream.state.evictions),
// and the shared grouping merge counters (group.merges.*). In sharded mode
// it additionally publishes per-shard series (stream.shard.<k>.{pushed,
// streams,evictions,watermark_unix_seconds}) and the merge-stage series
// (stream.merge.emitted, stream.merge.lag_seconds). In cluster mode the
// wire-level series join them (stream.cluster.{bytes_out,bytes_in,
// batches_sent,batches_acked,replayed_batches,reconnects,state_snapshots,
// rtt_seconds,inflight,punctuations_applied}). A nil registry leaves the
// streamer uninstrumented.
func (s *Streamer) Instrument(reg *obs.Registry) {
	s.mBuffered = reg.Gauge("stream.buffered")
	s.mPushed = reg.Counter("stream.pushed")
	s.mReordered = reg.Counter("stream.reordered")
	s.mDropped = reg.Counter("stream.dropped.late")
	s.mDroppedOvf = reg.Counter("stream.dropped.overflow")
	s.engMetrics = stream.ClusterMetrics{ShardedMetrics: stream.ShardedMetrics{Metrics: stream.Metrics{
		Grouping: stream.IncMetrics{
			MergeTemporal:   reg.Counter("group.merges.temporal"),
			MergeRule:       reg.Counter("group.merges.rule"),
			MergeCross:      reg.Counter("group.merges.cross"),
			RuleCandidates:  reg.Counter("group.rule.candidates_scanned"),
			RulePairs:       reg.Counter("group.rule.pairs_matched"),
			CrossCandidates: reg.Counter("group.cross.candidates_scanned"),
			UnresolvedLocs:  reg.Counter("group.rule.unresolved_locations"),
			OpenMessages:    reg.Gauge("stream.state.messages"),
			OpenGroups:      reg.Gauge("stream.state.groups"),
			Streams:         reg.Gauge("stream.state.streams"),
			StreamEvictions: reg.Counter("stream.state.evictions"),
			PoolGets:        reg.Counter("stream.pool.pending.gets"),
			PoolPuts:        reg.Counter("stream.pool.pending.puts"),
			PoolLive:        reg.Gauge("stream.pool.pending.live"),
		},
		Emitted:     reg.Counter("stream.emitted"),
		EmitLatency: reg.Histogram("stream.emit_latency_seconds", stream.EmitLatencyBounds()),
		Watermark:   reg.Gauge("stream.watermark_unix_seconds"),
	}}}
	if s.opts.ProvisionalHorizon > 0 {
		s.engMetrics.ProvEmitted = reg.Counter("stream.provisional.emitted")
		s.engMetrics.ProvRevised = reg.Counter("stream.provisional.revised")
		s.engMetrics.ProvSuperseded = reg.Counter("stream.provisional.superseded")
		s.engMetrics.ProvFinalized = reg.Counter("stream.provisional.finalized")
		s.engMetrics.RevisionChurn = reg.Histogram("stream.provisional.revision_churn", stream.ChurnBounds())
		s.engMetrics.ProvLatency = reg.Histogram("stream.provisional.latency_seconds", stream.EmitLatencyBounds())
		s.engMetrics.ProvMembers = reg.Histogram("stream.provisional.publication_members", stream.PublicationMembersBounds())
	}
	shards := s.opts.StreamWorkers
	if len(s.opts.ShardAddrs) > 0 {
		shards = len(s.opts.ShardAddrs) // one shard per address
	}
	if shards > 1 {
		s.engMetrics.MergeEmitted = reg.Counter("stream.merge.emitted")
		s.engMetrics.MergeLag = reg.Histogram("stream.merge.lag_seconds", stream.MergeLagBounds())
		s.engMetrics.Shards = make([]stream.ShardMetrics, shards)
		for k := 0; k < shards; k++ {
			s.engMetrics.Shards[k] = stream.ShardMetrics{
				Pushed:    reg.Counter(fmt.Sprintf("stream.shard.%d.pushed", k)),
				Streams:   reg.Gauge(fmt.Sprintf("stream.shard.%d.streams", k)),
				Evictions: reg.Counter(fmt.Sprintf("stream.shard.%d.evictions", k)),
				Watermark: reg.Gauge(fmt.Sprintf("stream.shard.%d.watermark_unix_seconds", k)),
			}
		}
	}
	if len(s.opts.ShardAddrs) > 0 {
		s.engMetrics.Client = cluster.ClientMetrics{
			BytesOut:       reg.Counter("stream.cluster.bytes_out"),
			BytesIn:        reg.Counter("stream.cluster.bytes_in"),
			BatchesSent:    reg.Counter("stream.cluster.batches_sent"),
			BatchesAcked:   reg.Counter("stream.cluster.batches_acked"),
			Replayed:       reg.Counter("stream.cluster.replayed_batches"),
			Reconnects:     reg.Counter("stream.cluster.reconnects"),
			StateSnapshots: reg.Counter("stream.cluster.state_snapshots"),
			RTT:            reg.Histogram("stream.cluster.rtt_seconds", stream.ClusterRTTBounds()),
			Inflight:       reg.Gauge("stream.cluster.inflight"),
		}
		s.engMetrics.PunctApplied = reg.Counter("stream.cluster.punctuations_applied")
	}
	if s.eng != nil {
		s.eng.SetClusterMetrics(s.engMetrics)
	}
}

// engine lazily builds the underlying engine (construction can fail on
// invalid temporal parameters, and NewStreamerWith has no error return).
func (s *Streamer) engine() (streamEngine, error) {
	if s.eng == nil {
		eng, err := s.d.newStreamEngine(s.opts)
		if err != nil {
			return nil, err
		}
		// A sharded engine takes handles only while it has dispatched nothing.
		eng.SetClusterMetrics(s.engMetrics)
		s.eng = eng
	}
	return s.eng, nil
}

// Close releases the engine's worker goroutines (a no-op for the serial
// engine). Open groups do not emit — Flush first for a clean shutdown.
func (s *Streamer) Close() {
	if s.eng != nil {
		s.eng.Close()
	}
}

// Push ingests one message and returns the events it closed (nil when none
// closed). Out-of-order arrivals within the reorder tolerance are sorted
// into place; arrivals older than the released frontier are dropped and
// counted, never an error — a live feed must survive a misbehaving clock.
// Drops split into two series: stream.dropped.late for arrivals lagging
// more than the tolerance behind the newest (the sender misbehaved), and
// stream.dropped.overflow for arrivals still within tolerance whose slot
// was lost because the cap (or a Flush) forced the frontier forward early
// (the buffer was undersized — retune ReorderCap, not the sender).
//
// On an engine error the events already closed during the call are
// returned alongside the error, so nothing the engine emitted is lost.
func (s *Streamer) Push(m syslogmsg.Message) (*DigestResult, error) {
	s.mPushed.Inc()
	s.pushed++
	if s.late(m.Time) {
		if s.opts.ReorderTolerance > 0 && m.Time.After(s.maxSeen.Add(-s.opts.ReorderTolerance)) {
			s.mDroppedOvf.Inc()
		} else {
			s.mDropped.Inc()
		}
		return s.finish(s.takeCarry(), nil)
	}
	if s.started && m.Time.Before(s.maxSeen) {
		s.mReordered.Inc()
	} else {
		s.maxSeen = m.Time
	}
	s.started = true

	events := s.takeCarry()
	var ferr error
	if len(s.buf) >= s.opts.ReorderCap {
		// The buffer is at its documented bound: release one message now
		// so it never holds more than ReorderCap. When the new arrival
		// precedes everything buffered it is itself the one to release —
		// feeding it directly keeps the feed order sorted without it ever
		// occupying a slot.
		if m.Time.Before(s.buf[0].m.Time) {
			evs, err := s.feed(m)
			events = append(events, evs...)
			ferr = err
		} else {
			item := s.buf.pop()
			evs, err := s.feed(item.m)
			events = append(events, evs...)
			if err != nil {
				ferr = err
			} else {
				s.buf.push(bufItem{m: m, order: s.arrivals})
				s.arrivals++
			}
		}
	} else {
		s.buf.push(bufItem{m: m, order: s.arrivals})
		s.arrivals++
	}
	if ferr == nil {
		evs, err := s.release()
		events = append(events, evs...)
		ferr = err
	}
	s.mBuffered.Set(float64(len(s.buf)))
	return s.finish(events, ferr)
}

// release feeds the engine every buffered message that is either older than
// maxSeen − tolerance (no in-tolerance arrival can precede it anymore) or
// forced out by the buffer cap (possible after a restore into a smaller
// cap; Push itself never overfills). Events closed before a feed error are
// returned with it.
func (s *Streamer) release() ([]event.Event, error) {
	bound := s.maxSeen.Add(-s.opts.ReorderTolerance)
	var events []event.Event
	for len(s.buf) > 0 {
		if s.buf[0].m.Time.After(bound) && len(s.buf) <= s.opts.ReorderCap {
			break
		}
		item := s.buf.pop()
		evs, err := s.feed(item.m)
		events = append(events, evs...)
		if err != nil {
			return events, err
		}
	}
	return events, nil
}

// takeCarry drains the restored-but-undelivered events, if any.
func (s *Streamer) takeCarry() []event.Event {
	if s.carry == nil {
		return nil
	}
	c := s.carry
	s.carry = nil
	return c
}

// finish packages events (possibly partial, alongside an error) plus the
// call's tier-tagged updates — restored carry first, then whatever the
// engine queued during this call — as a DigestResult, keeping the
// nil-when-empty contract.
func (s *Streamer) finish(events []event.Event, err error) (*DigestResult, error) {
	upds := s.carryUpd
	s.carryUpd = nil
	if s.eng != nil {
		if eu := s.eng.TakeUpdates(); len(eu) > 0 {
			if upds == nil {
				upds = eu
			} else {
				upds = append(upds, eu...)
			}
		}
	}
	if len(events) == 0 && len(upds) == 0 {
		return nil, err
	}
	return &DigestResult{Events: events, Updates: upds}, err
}

// feed augments one message and hands it to the engine.
func (s *Streamer) feed(m syslogmsg.Message) ([]event.Event, error) {
	eng, err := s.engine()
	if err != nil {
		return nil, err
	}
	pm := s.d.kb.Augment(&m)
	sm := streamMsg(&pm, s.seq)
	s.seq++
	return eng.Observe(sm)
}

// late reports whether t precedes what the engine has already been fed: a
// message at t can no longer be released, only dropped.
func (s *Streamer) late(t time.Time) bool {
	return s.eng != nil && s.eng.Progress().Behind(t)
}

// Flush releases the reorder buffer and force-closes every open group,
// returning the events (nil when nothing was pending). The engine's
// temporal models and its watermark, which is the drop frontier, persist:
// flushing is an emission point, not a reset.
//
// If a feed fails mid-drain, the events already closed are returned with
// the error (nothing emitted is lost), the unfed remainder stays buffered,
// and stream.buffered reflects it.
func (s *Streamer) Flush() (*DigestResult, error) {
	events := s.takeCarry()
	var ferr error
	for len(s.buf) > 0 {
		item := s.buf.pop()
		evs, err := s.feed(item.m)
		events = append(events, evs...)
		if err != nil {
			ferr = err
			break
		}
	}
	s.mBuffered.Set(float64(len(s.buf)))
	if ferr == nil && s.eng != nil {
		events = append(events, s.eng.Drain()...)
	}
	return s.finish(events, ferr)
}

// Pushed is the number of Push calls this streamer has accepted, dropped
// arrivals included. A replayable source that checkpoints the streamer can
// skip exactly this many messages on restart to resume where it left off.
func (s *Streamer) Pushed() uint64 { return s.pushed }

// Pending returns the number of messages held in the streamer: buffered for
// reordering plus open (grouped but unemitted) in the engine.
func (s *Streamer) Pending() int {
	n := len(s.buf)
	if s.eng != nil {
		n += s.eng.Pending()
	}
	return n
}

// Watermark is the engine's watermark (zero before the first release).
func (s *Streamer) Watermark() time.Time {
	if s.eng == nil {
		return time.Time{}
	}
	return s.eng.Progress().Time()
}

// bufItem is one buffered arrival; order breaks timestamp ties so equal
// times release in arrival order.
type bufItem struct {
	m     syslogmsg.Message
	order uint64
}

// reorderHeap is a min-heap on (time, arrival order). Hand-rolled rather
// than container/heap: push/pop run once per message on the hot path, and
// the concrete element type avoids the interface boxing allocation.
type reorderHeap []bufItem

func (h reorderHeap) less(i, j int) bool {
	if !h[i].m.Time.Equal(h[j].m.Time) {
		return h[i].m.Time.Before(h[j].m.Time)
	}
	return h[i].order < h[j].order
}

func (h *reorderHeap) push(it bufItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *reorderHeap) pop() bufItem {
	q := *h
	n := len(q) - 1
	it := q[0]
	q[0] = q[n]
	q[n] = bufItem{}
	q = q[:n]
	*h = q
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(l, small) {
			small = l
		}
		if r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return it
}
