package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"syslogdigest/internal/collector"
	"syslogdigest/internal/core"
	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/template"
	"syslogdigest/internal/temporal"
)

// The traced run attributes time to layers (layer = package) by replaying
// the workload's input layer by layer and timing calls into each layer's
// public functions from here; nothing inside the program is instrumented
// beyond the obs.Registry its own Instrument methods install. End-to-end
// metrics never come from this file.

// traceChunk is how many messages one span covers.
const traceChunk = 1024

// span is one timed interval at a layer boundary. Spans of one chunk share
// its Chunk id; Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Chunk  int    `json:"chunk"`
}

// tracer keeps spans in memory; write puts them on disk at exit.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, chunk int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Chunk: chunk})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// selfTime is, per span name, total duration minus the part child spans
// cover.
func (t *tracer) selfTime() map[string]time.Duration {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - children[i])
	}
	return self
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func perMsg(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// groupingConfig and engineConfig rebuild, from the knowledge base's public
// fields, the configuration core.Digester assembles for its engines.
func groupingConfig(kb *core.KnowledgeBase, prov time.Duration) grouping.IncrementalConfig {
	return grouping.IncrementalConfig{
		Config: grouping.Config{
			Temporal:    kb.Params.Temporal,
			RuleWindow:  kb.Params.Rules.Window,
			CrossWindow: kb.Params.CrossWindow,
			MaxScan:     kb.Params.MaxScan,
		},
		ProvisionalHorizon: prov,
	}
}

func engineConfig(kb *core.KnowledgeBase, prov time.Duration) stream.Config {
	return stream.Config{
		Grouping: groupingConfig(kb, prov),
		Freq:     kb.Freq,
		Labeler:  event.NewLabeler(kb.Templates),
	}
}

func streamMessage(pm *core.PlusMessage, seq int) stream.Message {
	return stream.Message{
		Seq: seq, Time: pm.Time, Router: pm.Router, Template: pm.Template,
		Loc: pm.Loc, AllLocs: pm.AllLocs, Peers: pm.Peers, Raw: pm.Index,
	}
}

// histPercentile reads a percentile from a snapshot histogram as the upper
// bound of the bucket it lands in (+Inf clamps to the last finite bound).
func histPercentile(hv *obs.HistogramValue, p float64) float64 {
	if hv == nil || hv.Count == 0 {
		return 0
	}
	rank := uint64(p * float64(hv.Count))
	var cum uint64
	last := 0.0
	for _, b := range hv.Buckets {
		cum += b.Count
		if v, err := strconv.ParseFloat(b.LE, 64); err == nil && !math.IsInf(v, 0) {
			last = v
		}
		if cum > rank {
			break
		}
	}
	return last
}

// tracedRun produces every per-layer metric for one workload input and
// writes the spans to traceFile. It returns the traced end-to-end pass so
// the caller can report its operations.
func tracedRun(in *input, traceFile string) (map[string]float64, passResult, error) {
	m := make(map[string]float64)
	tr := &tracer{t0: time.Now()}
	n := len(in.msgs)

	// Untraced whole-Push wall: the denominator of coverage and overhead.
	pushWall, err := pushLayer(in)
	if err != nil {
		return nil, passResult{}, err
	}
	m["core.push_ns_per_msg"] = perMsg(pushWall, n)

	in.kb.SetMatchCache(0)
	start := time.Now()
	plus := in.kb.AugmentAll(in.msgs)
	augmentWall := time.Since(start)
	observeWall, err := observeLayer(in, plus, m)
	if err != nil {
		return nil, passResult{}, err
	}
	m["stream.observe_ns_per_msg"] = perMsg(observeWall, n)

	in.kb.SetMatchCache(-1)
	start = time.Now()
	for i := range in.msgs {
		_ = in.kb.Augment(&in.msgs[i])
	}
	m["core.augment_miss_ns_per_msg"] = perMsg(time.Since(start), n)
	in.kb.SetMatchCache(0)

	parseLayer(in, tr, m)
	if err := collectorLayer(in, tr, m); err != nil {
		return nil, passResult{}, err
	}
	if err := checkpointLayer(in, m); err != nil {
		return nil, passResult{}, err
	}
	if err := learnLayer(in, m); err != nil {
		return nil, passResult{}, err
	}

	// The traced pipeline: Streamer.Push's content, hand-composed.
	reg := obs.NewRegistry()
	in.kb.Instrument(reg)
	in.kb.SetMatchCache(0)
	tracedStart := time.Now()
	ps, err := pipelineLayer(in, tr)
	if err != nil {
		return nil, passResult{}, err
	}
	tracedWall := time.Since(tracedStart)
	self := tr.selfTime()
	snap := reg.Snapshot()
	hits, misses := snap.Counter("digest.match.cache.hits"), snap.Counter("digest.match.cache.misses")
	m["core.augment_ns_per_msg"] = perMsg(self["augment"], n)
	if hits+misses > 0 {
		m["core.match_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["template.candidates_scanned_per_msg"] = float64(snap.Counter("digest.match.candidates_scanned")) / float64(n)
	m["core.reorder_ns_per_msg"] = perMsg(pushWall-augmentWall-observeWall, n)
	m["grouping.local_step_ns_per_msg"] = perMsg(self["local_step"], n)
	m["grouping.merge_apply_ns_per_msg"] = perMsg(self["merge_apply"], n)
	m["grouping.rule_candidates_per_msg"] = float64(ps.local.RuleCandidates) / float64(n)
	m["grouping.cross_candidates_per_msg"] = float64(ps.merge.CrossCandidates) / float64(n)
	m["grouping.merges.temporal"] = float64(ps.merge.TemporalMerges)
	m["grouping.merges.rule"] = float64(ps.merge.RuleMerges)
	m["grouping.merges.cross"] = float64(ps.merge.CrossMerges)
	m["grouping.open_groups_peak"] = float64(ps.openGroupsPeak)
	m["grouping.streams_peak"] = float64(ps.streamsPeak)
	m["grouping.evictions"] = float64(ps.local.Evictions)
	m["event.build_ns_per_event"] = perMsg(self["event_build"], ps.builds)
	m["event.events_out"] = float64(ps.events)
	m["event.compression_ratio"] = float64(ps.events) / float64(n)
	layers := self["augment"] + self["local_step"] + self["merge_apply"] + self["event_build"]
	m["trace.coverage"] = float64(layers) / float64(pushWall)
	m["trace.overhead_ratio"] = float64(tracedWall) / float64(pushWall)

	// The traced end-to-end pass: the workload itself with a registry
	// installed, for what only the whole path shows.
	e2e := obs.NewRegistry()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pass, err := runPass(in, e2e)
	if err != nil {
		return nil, pass, err
	}
	runtime.ReadMemStats(&ms1)
	es := e2e.Snapshot()
	sent := max(pass.sent, 1)
	m["core.reordered"] = float64(es.Counter("stream.reordered"))
	m["core.dropped_late"] = float64(es.Counter("stream.dropped.late") + es.Counter("stream.dropped.overflow"))
	m["loadgen.sent"] = float64(pass.sent)
	m["loadgen.bytes"] = float64(pass.sentBytes)
	m["loadgen.undelivered"] = float64(pass.sent - pass.msgs)
	m["loadgen.late_p99_ms"] = percentile(pass.lateMs, 0.99)
	m["runtime.allocs_per_msg"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(sent)
	m["runtime.bytes_per_msg"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(sent)
	m["runtime.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m["lag.first_signal_p50_ms"] = percentile(pass.lags[recFirstSignal], 0.50)
	m["lag.first_signal_p99_ms"] = percentile(pass.lags[recFirstSignal], 0.99)
	m["lag.first_signal_samples"] = float64(len(pass.lags[recFirstSignal]))
	m["lag.final_p50_ms"] = percentile(pass.lags[recFinal], 0.50)
	m["lag.final_p99_ms"] = percentile(pass.lags[recFinal], 0.99)
	m["lag.final_samples"] = float64(len(pass.lags[recFinal]))
	if pass.learnWall > 0 {
		m["batch.learn_msgs_per_s"] = float64(len(in.learn)) / pass.learnWall.Seconds()
		m["batch.digest_msgs_per_s"] = float64(len(in.msgs)) / pass.digestWall.Seconds()
	}
	if in.shard != nil {
		m["cluster.bytes_out_per_msg"] = float64(es.Counter("stream.cluster.bytes_out")) / float64(sent)
		m["cluster.bytes_in_per_msg"] = float64(es.Counter("stream.cluster.bytes_in")) / float64(sent)
		rtt := es.Histogram("stream.cluster.rtt_seconds")
		m["cluster.rtt_p50_ms"] = histPercentile(rtt, 0.50) * 1e3
		m["cluster.rtt_p99_ms"] = histPercentile(rtt, 0.99) * 1e3
		m["cluster.reconnects"] = float64(es.Counter("stream.cluster.reconnects"))
		m["cluster.replayed_batches"] = float64(es.Counter("stream.cluster.replayed_batches"))
		if pass.cpu > 0 {
			m["cluster.dispatcher_cpu_share"] = float64(pass.selfCPU) / float64(pass.cpu)
		}
	}
	return m, pass, tr.write(traceFile)
}

// pushLayer times whole Streamer.Push calls in process (no sockets) on the
// serial engine, the reference shape every workload's reference pass uses.
func pushLayer(in *input) (time.Duration, error) {
	d, err := core.NewDigester(in.kb)
	if err != nil {
		return 0, err
	}
	in.kb.SetMatchCache(0)
	st := core.NewStreamerWith(d, core.StreamerOptions{StreamWorkers: 1, ProvisionalHorizon: in.w.provisional})
	defer st.Close()
	runtime.GC()
	start := time.Now()
	for i := range in.msgs {
		if _, err := st.Push(in.msgs[i]); err != nil {
			return 0, err
		}
	}
	if _, err := st.Flush(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// observeLayer times the engines alone on pre-augmented input: the serial
// Engine.Observe (returned), and the 2-worker ShardedEngine with its
// per-shard and merge-stage series.
func observeLayer(in *input, plus []core.PlusMessage, m map[string]float64) (time.Duration, error) {
	cfg := engineConfig(in.kb, in.w.provisional)
	eng, err := stream.New(in.kb.Dictionary(), in.kb.RuleBase, cfg)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	for i := range plus {
		if _, err := eng.Observe(streamMessage(&plus[i], i)); err != nil {
			return 0, err
		}
		eng.TakeUpdates()
	}
	eng.Drain()
	serial := time.Since(start)

	const workers = 2
	sh, err := stream.NewSharded(in.kb.Dictionary(), in.kb.RuleBase, cfg, workers)
	if err != nil {
		return 0, err
	}
	defer sh.Close()
	reg := obs.NewRegistry()
	sm := stream.ShardedMetrics{
		MergeLag: reg.Histogram("stream.merge.lag_seconds", stream.MergeLagBounds()),
		Shards:   make([]stream.ShardMetrics, workers),
	}
	for k := range sm.Shards {
		sm.Shards[k].Pushed = reg.Counter("stream.shard." + strconv.Itoa(k) + ".pushed")
	}
	sh.SetShardedMetrics(sm)
	runtime.GC()
	start = time.Now()
	for i := range plus {
		if _, err := sh.Observe(streamMessage(&plus[i], i)); err != nil {
			return 0, err
		}
		sh.TakeUpdates()
	}
	sh.Drain()
	m["stream.sharded_observe_ns_per_msg"] = perMsg(time.Since(start), len(plus))
	snap := reg.Snapshot()
	var most, total uint64
	for k := 0; k < workers; k++ {
		v := snap.Counter("stream.shard." + strconv.Itoa(k) + ".pushed")
		most, total = max(most, v), total+v
	}
	if total > 0 {
		m["stream.shard_skew"] = float64(most) * workers / float64(total)
	}
	// Log-time lag between dispatch and merge, at bucket resolution.
	m["stream.merge_lag_p99_ms"] = histPercentile(snap.Histogram("stream.merge.lag_seconds"), 0.99) * 1e3
	return serial, nil
}

// parseLayer times syslogmsg.ParseWireBytes over the wire lines, one span
// per chunk, and counts its allocations.
func parseLayer(in *input, tr *tracer, m map[string]float64) {
	n := len(in.ends)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var total time.Duration
	for c, lo := 0, 0; lo < n; c, lo = c+1, lo+traceChunk {
		id := tr.begin("parse", -1, c)
		for i := lo; i < min(lo+traceChunk, n); i++ {
			_, _ = syslogmsg.ParseWireBytes(in.line(i), uint64(i), 0) // setup already checked every line parses
		}
		tr.end(id)
		total += time.Duration(tr.spans[id].End - tr.spans[id].Start)
	}
	runtime.ReadMemStats(&ms1)
	m["syslogmsg.parse_ns_per_msg"] = perMsg(total, n)
	m["syslogmsg.parse_allocs_per_msg"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(n, 1))
}

// collectorLayer times the collector alone: the wire lines over one TCP
// connection into a counting no-op handler.
func collectorLayer(in *input, tr *tracer, m map[string]float64) error {
	reg := obs.NewRegistry()
	var delivered atomic.Int64
	coll, err := collector.New(collector.Config{TCPAddr: "127.0.0.1:0", Metrics: reg},
		func(syslogmsg.Message) { delivered.Add(1) })
	if err != nil {
		return err
	}
	if err := coll.Start(); err != nil {
		return err
	}
	defer coll.Close()
	runtime.GC()
	id := tr.begin("collector", -1, 0)
	if err := sendTCP(coll.TCPAddr().String(), in.wire); err != nil {
		return err
	}
	if err := coll.Close(); err != nil {
		return err
	}
	tr.end(id)
	snap := reg.Snapshot()
	m["collector.ingest_ns_per_msg"] = perMsg(time.Duration(tr.spans[id].End-tr.spans[id].Start), int(delivered.Load()))
	m["collector.received"] = float64(snap.Counter("collector.tcp.received") + snap.Counter("collector.udp.received"))
	m["collector.dropped"] = float64(snap.Counter("collector.tcp.dropped") + snap.Counter("collector.udp.dropped"))
	m["collector.udp.truncated"] = float64(snap.Counter("collector.udp.truncated"))
	m["collector.tcp.oversized"] = float64(snap.Counter("collector.tcp.oversized"))
	return nil
}

// checkpointLayer snapshots and restores a streamer stopped mid-feed, on
// the serial and the 2-worker sharded engine.
func checkpointLayer(in *input, m map[string]float64) error {
	for _, shape := range []struct {
		prefix  string
		workers int
	}{{"checkpoint.", 1}, {"checkpoint.sharded_", 2}} {
		d, err := core.NewDigester(in.kb)
		if err != nil {
			return err
		}
		opts := core.StreamerOptions{StreamWorkers: shape.workers, ProvisionalHorizon: in.w.provisional}
		st := core.NewStreamerWith(d, opts)
		for i := range in.msgs[:len(in.msgs)/2] {
			if _, err := st.Push(in.msgs[i]); err != nil {
				st.Close()
				return err
			}
		}
		start := time.Now()
		snap, err := st.Snapshot()
		snapWall := time.Since(start)
		st.Close()
		if err != nil {
			return err
		}
		start = time.Now()
		restored, err := core.RestoreStreamer(d, snap, opts)
		if err != nil {
			return err
		}
		m[shape.prefix+"restore_ms"] = ms(time.Since(start))
		restored.Close()
		m[shape.prefix+"snapshot_ms"] = ms(snapWall)
		m[shape.prefix+"bytes"] = float64(len(snap))
	}
	return nil
}

// learnLayer times the three learning stages on the learning corpus, each
// called directly, with the grids Learner.Learn uses.
func learnLayer(in *input, m map[string]float64) error {
	start := time.Now()
	templates := template.Learn(in.learn, in.params.Template)
	m["template.learn_ms"] = ms(time.Since(start))
	m["template.templates"] = float64(len(templates))

	plus := in.kb.AugmentAll(in.learn)
	start = time.Now()
	alphas := []float64{0.01, 0.025, 0.05, 0.075, 0.1, 0.2, 0.3, 0.45, 0.6}
	betas := []float64{2, 3, 4, 5, 6, 7}
	if _, err := temporal.Calibrate(core.TemporalStreams(plus), alphas, betas, in.kb.Params.Temporal); err != nil {
		return err
	}
	m["temporal.calibrate_ms"] = ms(time.Since(start))

	start = time.Now()
	res, err := rules.Mine(core.RuleEvents(plus), in.kb.Params.Rules)
	if err != nil {
		return err
	}
	m["rules.mine_ms"] = ms(time.Since(start))
	m["rules.rules"] = float64(len(res.Rules))
	return nil
}

// pipelineStats are the counts the hand-composed pipeline ends with.
type pipelineStats struct {
	local          grouping.LocalStats
	merge          grouping.MergeStats
	openGroupsPeak int
	streamsPeak    int
	events         int // final events
	builds         int // event.Builder.BuildGroup calls (final events + published revisions)
}

// pipelineLayer is Streamer.Push's content composed by hand from the
// layers' public functions, one span per layer per chunk: KnowledgeBase.
// Augment, then RouterLocal.Step a chunk ahead of Merger.Apply (as the
// sharded engine's batches run them), with event.Builder.BuildGroup on
// whatever an Apply closes or publishes. It must close exactly the events
// the reference pass saw.
func pipelineLayer(in *input, tr *tracer) (pipelineStats, error) {
	var ps pipelineStats
	kb := in.kb
	sh, err := grouping.NewShardable(kb.Dictionary(), kb.RuleBase, groupingConfig(kb, in.w.provisional))
	if err != nil {
		return ps, err
	}
	local, merger, pool := sh.NewLocal(0), sh.NewMerger(), sh.Pool()
	builder := event.NewBuilder(kb.Freq, event.NewLabeler(kb.Templates))

	type item struct {
		p, temporal *grouping.Pending
		rs, re      int
	}
	var (
		plus    = make([]core.PlusMessage, traceChunk)
		items   = make([]item, traceChunk)
		arena   []*grouping.Pending
		stepJS  grouping.Joins // Step reuses its Rules backing, so Apply gets its own
		applyJS grouping.Joins
		members []event.Member
	)
	build := func(parent, chunk int, closed []grouping.ClosedGroup, updates []grouping.GroupUpdate) {
		if len(closed) == 0 && len(updates) == 0 {
			return
		}
		id := tr.begin("event_build", parent, chunk)
		for _, gu := range updates {
			if gu.Kind == grouping.UpdateSuperseded {
				continue
			}
			members = appendMembers(members[:0], gu.Members)
			builder.BuildGroup(members)
			ps.builds++
		}
		for _, cg := range closed {
			members = appendMembers(members[:0], cg.Members)
			builder.BuildGroup(members)
			ps.builds++
			ps.events++
		}
		merger.Recycle(closed)
		tr.end(id)
	}

	n := len(in.msgs)
	runtime.GC()
	for c, lo := 0, 0; lo < n; c, lo = c+1, lo+traceChunk {
		size := min(traceChunk, n-lo)
		root := tr.begin("chunk", -1, c)

		id := tr.begin("augment", root, c)
		for i := 0; i < size; i++ {
			plus[i] = kb.Augment(&in.msgs[lo+i])
		}
		tr.end(id)

		id = tr.begin("local_step", root, c)
		arena = arena[:0]
		for i := 0; i < size; i++ {
			pm := &plus[i]
			p := pool.Get(grouping.Message{
				Seq: lo + i, Time: pm.Time, Router: pm.Router, Template: pm.Template,
				Loc: pm.Loc, AllLocs: pm.AllLocs, Peers: pm.Peers, Raw: pm.Index,
			})
			if err := local.Step(p, &stepJS); err != nil {
				return ps, err
			}
			items[i] = item{p: p, temporal: stepJS.Temporal, rs: len(arena)}
			arena = append(arena, stepJS.Rules...)
			items[i].re = len(arena)
		}
		tr.end(id)

		id = tr.begin("merge_apply", root, c)
		for i := 0; i < size; i++ {
			it := &items[i]
			applyJS.Temporal = it.temporal
			applyJS.Rules = arena[it.rs:it.re:it.re]
			closed, err := merger.Apply(it.p, &applyJS)
			if err != nil {
				return ps, err
			}
			build(id, c, closed, merger.TakeUpdates())
		}
		tr.end(id)

		ps.openGroupsPeak = max(ps.openGroupsPeak, merger.Stats().OpenGroups)
		ps.streamsPeak = max(ps.streamsPeak, local.Stats().Streams)
		tr.end(root)
	}
	ps.local, ps.merge = local.Stats(), merger.Stats()
	closed := merger.Drain()
	build(-1, -1, closed, merger.TakeUpdates())
	local.DrainWindows()
	if ps.events != in.ref.finals {
		return ps, fmt.Errorf("hand-composed pipeline closed %d events, reference pass %d", ps.events, in.ref.finals)
	}
	return ps, nil
}

func appendMembers(dst []event.Member, src []grouping.Message) []event.Member {
	for i := range src {
		gm := &src[i]
		dst = append(dst, event.Member{
			Seq: gm.Seq, Time: gm.Time, Router: gm.Router,
			Template: gm.Template, Loc: gm.Loc, Raw: gm.Raw,
		})
	}
	return dst
}
