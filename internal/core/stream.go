package core

import (
	"fmt"
	"time"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
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
	opts StreamerOptions // the run's shape; the reorder fields are fe's

	fe         frontEnd
	eng        streamEngine
	engMetrics stream.ClusterMetrics

	seq int // dense engine sequence, assigned at release

	// carry holds events recovered from a checkpoint that the snapshotted
	// run had emitted into the engine's collection queue but the caller had
	// not yet received; they surface on the next Push or Flush, preserving
	// exactly-once delivery across a restart. carryUpd is the same for
	// tier-tagged updates, keeping (EventID, Revision) delivery
	// exactly-once too.
	carry    []event.Event
	carryUpd []event.Update
}

// NewStreamerWith wraps a digester with explicit options (the zero value is
// the serial engine behind the default reorder buffer, final records only).
func NewStreamerWith(d *Digester, opts StreamerOptions) *Streamer {
	return &Streamer{d: d, opts: opts, fe: newFrontEnd(opts.ReorderTolerance, opts.ReorderCap)}
}

// Instrument publishes the streamer's metrics into reg: the front end's
// series (stream.pushed, stream.reordered, stream.dropped.{late,overflow},
// stream.buffered), the engine's emission metrics (stream.emitted,
// stream.emit_latency_seconds, stream.watermark_unix_seconds), its state
// gauges (stream.state.{messages,groups,streams}, stream.state.evictions),
// and the shared grouping merge counters (group.merges.*). In sharded mode
// it additionally publishes per-shard series (stream.shard.<k>.{pushed,
// streams,evictions}) and the merge-stage lag (stream.merge.lag_seconds).
// In cluster mode the wire-level series join them (stream.cluster.{
// bytes_out,bytes_in,batches_sent,batches_acked,replayed_batches,
// reconnects,state_snapshots,rtt_seconds,inflight,punctuations_applied}).
// A nil registry leaves the streamer uninstrumented.
func (s *Streamer) Instrument(reg *obs.Registry) {
	s.fe.instrument(reg)
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
		s.engMetrics.MergeLag = reg.Histogram("stream.merge.lag_seconds", stream.MergeLagBounds())
		s.engMetrics.Shards = make([]stream.ShardMetrics, shards)
		for k := 0; k < shards; k++ {
			s.engMetrics.Shards[k] = stream.ShardMetrics{
				Pushed:    reg.Counter(fmt.Sprintf("stream.shard.%d.pushed", k)),
				Streams:   reg.Gauge(fmt.Sprintf("stream.shard.%d.streams", k)),
				Evictions: reg.Counter(fmt.Sprintf("stream.shard.%d.evictions", k)),
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
// returned alongside the error, so nothing the engine emitted is lost; the
// message whose feed failed is gone, and everything not yet released,
// the arrival included unless it was that message, stays buffered.
func (s *Streamer) Push(m syslogmsg.Message) (*DigestResult, error) {
	events := s.takeCarry()
	if !s.fe.admit(m, s.progress()) {
		return s.finish(events, nil)
	}
	events, err := s.release(events, false)
	return s.finish(events, err)
}

// release feeds the engine every message the front end's release rule lets
// go (all of them when flushing), appending the events they close to
// events. A feed error stops it: the events closed before it are returned
// with the error, and the messages not yet popped stay buffered.
func (s *Streamer) release(events []event.Event, flush bool) ([]event.Event, error) {
	for it, ok := s.fe.pop(flush); ok; it, ok = s.fe.pop(flush) {
		evs, err := s.feed(it.m)
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

// progress is what the engine has been fed (zero before the engine exists).
func (s *Streamer) progress() grouping.Progress {
	if s.eng == nil {
		return grouping.Progress{}
	}
	return s.eng.Progress()
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
	events, err := s.release(s.takeCarry(), true)
	if err == nil && s.eng != nil {
		events = append(events, s.eng.Drain()...)
	}
	return s.finish(events, err)
}

// Pushed is the number of Push calls this streamer has accepted, dropped
// arrivals included. A replayable source that checkpoints the streamer can
// skip exactly this many messages on restart to resume where it left off.
func (s *Streamer) Pushed() uint64 { return s.fe.pushed }

// Pending returns the number of messages held in the streamer: buffered for
// reordering plus open (grouped but unemitted) in the engine.
func (s *Streamer) Pending() int {
	n := s.fe.len()
	if s.eng != nil {
		n += s.eng.Pending()
	}
	return n
}

// Watermark is the engine's watermark (zero before the first release).
func (s *Streamer) Watermark() time.Time { return s.progress().Time() }
