package syslogdigest_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"syslogdigest"
	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/cluster"
	"syslogdigest/internal/collector"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
)

// TestLivePipelineObservability runs the whole online path — collector →
// streamer → digester — over a generated feed with every stage publishing
// into one obs registry and an HTTP exporter in front, then reconciles the
// books end to end: every line sent is either received or accounted for as
// dropped/oversized, everything received reaches the digester, and the
// /metrics and /healthz endpoints agree with the in-process counters.
//
// The run repeats with the serial engine and the router-sharded engine;
// in sharded mode the per-shard and merge-stage books must reconcile with
// the global stream counters at every worker count.
//
// The streamer runs with a provisional horizon, so the two-tier emission
// books (stream.provisional.*) reconcile too: finalized == stream.emitted,
// emitted == finalized + superseded (every identity that got a first signal
// either closed or was absorbed), and the delivered Update records match
// the counters tier for tier.
//
// Across runs, stream.emit_latency_seconds (watermark at emission minus the
// event's last message time, in log time) must be bucket-for-bucket the
// same at every worker count: the sharded engine's merge stage replays the
// serial engine's closure sequence against its own watermark, so any
// difference is a real divergence in when events close.
func TestLivePipelineObservability(t *testing.T) {
	ds, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: 12, Seed: 11,
		Duration: 12 * time.Hour, RateScale: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := syslogdigest.NewLearner(syslogdigest.DefaultParams()).Learn(ds.Messages, ds.Net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	var serial []obs.Bucket
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			lat := livePipelineRun(t, kb, ds, workers)
			if workers == 1 {
				serial = lat
			} else if serial != nil && !reflect.DeepEqual(lat, serial) {
				t.Fatalf("emit latency histogram differs from the serial engine's:\nworkers %d: %+v\nserial:    %+v",
					workers, lat, serial)
			}
		})
	}
}

// livePipelineRun is one reconciled run; it returns the run's
// stream.emit_latency_seconds buckets.
func livePipelineRun(t *testing.T, kb *syslogdigest.KnowledgeBase, ds *gen.Dataset, workers int) []obs.Bucket {
	reg := obs.NewRegistry()
	obs.PublishRuntime(reg)
	health := obs.NewHealth(0)
	srv, err := obs.Serve("127.0.0.1:0", reg, health)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Readiness flips only once the knowledge base is loaded and the
	// digester is built, mirroring the cmd wiring.
	if code, _ := httpGet(t, srv.Addr(), "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz before ready = %d, want 503", code)
	}
	d, err := syslogdigest.NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	// Learning (and any previous run) warmed the match cache with this very
	// feed; flush so the run starts cold like the cmd wiring (which loads
	// the KB from JSON).
	kb.SetMatchCache(0)
	d.Instrument(reg)
	st := syslogdigest.NewStreamerWith(d, syslogdigest.StreamerOptions{
		StreamWorkers:      workers,
		ProvisionalHorizon: 30 * time.Second,
	})
	defer st.Close()
	st.Instrument(reg)
	health.SetReady(true)

	var (
		mu        sync.Mutex
		digested  int
		eventsOut int
		updSeen   [4]uint64 // delivered updates by Status
		pubVisits uint64    // members across delivered provisional and revised records
	)
	countUpdates := func(res *syslogdigest.DigestResult) {
		if res == nil {
			return
		}
		for i := range res.Updates {
			u := &res.Updates[i]
			updSeen[u.Status]++
			if u.Status == syslogdigest.StatusProvisional || u.Status == syslogdigest.StatusRevised {
				pubVisits += uint64(u.Event.Size())
			}
		}
	}
	col, err := collector.New(collector.Config{
		TCPAddr: "127.0.0.1:0", MaxLineBytes: 2048, Metrics: reg,
	}, func(m syslogmsg.Message) {
		mu.Lock()
		defer mu.Unlock()
		res, err := st.Push(m)
		if err != nil {
			t.Error(err)
			return
		}
		if res != nil {
			for _, e := range res.Events {
				digested += e.Size()
			}
			eventsOut += len(res.Events)
		}
		countUpdates(res)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// One connection carries the whole feed, with a garbage line and an
	// oversized line injected mid-stream: both must be absorbed without
	// losing any later message.
	conn, err := net.Dial("tcp", col.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for i, m := range ds.Messages {
		if i == len(ds.Messages)/3 {
			fmt.Fprintf(conn, "not a syslog line at all\n")
			fmt.Fprintf(conn, "%s\n", strings.Repeat("x", 8000))
		}
		if _, err := fmt.Fprintf(conn, "%s\n", m.Format()); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	conn.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if col.Stats().Received == uint64(sent) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	res, err := st.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		for _, e := range res.Events {
			digested += e.Size()
		}
		eventsOut += len(res.Events)
	}
	countUpdates(res)
	mu.Unlock()

	// In-process reconciliation: received == digested, and every sent line
	// is accounted for.
	cst := col.Stats()
	if cst.Received != uint64(sent) {
		t.Fatalf("received %d != sent %d (dropped %d oversized %d)", cst.Received, sent, cst.Dropped, cst.Oversized)
	}
	if cst.Dropped != 1 || cst.Oversized != 1 {
		t.Fatalf("dropped %d oversized %d, want 1 and 1", cst.Dropped, cst.Oversized)
	}
	if uint64(digested) != cst.Received {
		t.Fatalf("digested %d != received %d", digested, cst.Received)
	}
	if eventsOut == 0 || eventsOut >= digested {
		t.Fatalf("events %d out of %d messages: no compression", eventsOut, digested)
	}

	// The exporter must tell the same story.
	code, body := httpGet(t, srv.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	received := snap.Counter("collector.tcp.received")
	drops := snap.Counter("collector.tcp.dropped") + snap.Counter("collector.tcp.oversized")
	if received != uint64(sent) || drops != 2 {
		t.Fatalf("exporter: received %d drops %d, want %d and 2", received, drops, sent)
	}
	if got := snap.Counter("stream.pushed"); got != received {
		t.Fatalf("exporter: stream.pushed %d != received %d", got, received)
	}
	if got := snap.Counter("stream.dropped.late"); got != 0 {
		t.Fatalf("exporter: stream.dropped.late %d on an in-order feed", got)
	}
	if got := snap.Counter("stream.dropped.overflow"); got != 0 {
		t.Fatalf("exporter: stream.dropped.overflow %d on an in-order feed", got)
	}
	if got := snap.Counter("stream.emitted"); got != uint64(eventsOut) {
		t.Fatalf("exporter: stream.emitted %d != %d", got, eventsOut)
	}
	merges := snap.Counter("group.merges.temporal") + snap.Counter("group.merges.rule") + snap.Counter("group.merges.cross")
	if want := uint64(digested - eventsOut); merges != want {
		t.Fatalf("exporter: merge total %d != messages-events %d", merges, want)
	}
	// Candidate-scan books: the rule pass can only match pairs it scanned,
	// and can only merge groups whose pair it matched; likewise a cross
	// merge implies an examined cross candidate. A real feed exercises the
	// rule window, so a zero scan count means the counters came unwired.
	ruleScanned := snap.Counter("group.rule.candidates_scanned")
	rulePairs := snap.Counter("group.rule.pairs_matched")
	if rulePairs > ruleScanned {
		t.Fatalf("exporter: rule pairs matched %d > candidates scanned %d", rulePairs, ruleScanned)
	}
	if rm := snap.Counter("group.merges.rule"); rm > rulePairs {
		t.Fatalf("exporter: rule merges %d > pairs matched %d", rm, rulePairs)
	}
	if ruleScanned == 0 {
		t.Fatal("exporter: rule pass scanned no candidates on a real feed")
	}
	// Every location on a generated feed comes out of the dictionary the
	// knowledge base was learned with, so none takes the overflow path.
	if got := snap.Counter("group.rule.unresolved_locations"); got != 0 {
		t.Fatalf("exporter: %d unresolved locations on a feed from configured routers", got)
	}
	if cm := snap.Counter("group.merges.cross"); cm > snap.Counter("group.cross.candidates_scanned") {
		t.Fatalf("exporter: cross merges %d > candidates scanned %d", cm, snap.Counter("group.cross.candidates_scanned"))
	}
	// Match-cache books: every augmented message is exactly one cache hit or
	// miss, a real feed repeats itself (hits > 0), only misses run the
	// matcher (candidate scans), and evictions never exceed insertions.
	hits, misses := snap.Counter("digest.match.cache.hits"), snap.Counter("digest.match.cache.misses")
	if hits+misses != received {
		t.Fatalf("exporter: cache hits %d + misses %d != augmented %d", hits, misses, received)
	}
	if misses == 0 || hits == 0 {
		t.Fatalf("exporter: degenerate cache traffic: hits %d misses %d", hits, misses)
	}
	if ev := snap.Counter("digest.match.cache.evictions"); ev > misses {
		t.Fatalf("exporter: evictions %d > misses %d", ev, misses)
	}
	if got := snap.Counter("digest.match.candidates_scanned"); got == 0 {
		t.Fatal("exporter: matcher scanned no candidates")
	}
	emitLat := snap.Histogram("stream.emit_latency_seconds")
	if emitLat == nil || emitLat.Count != uint64(eventsOut) {
		t.Fatalf("exporter: emit latency observations %+v, want %d", emitLat, eventsOut)
	}
	// Two-tier emission books. Every final event carries exactly one
	// finalized record; every first signal (revision 0) is eventually
	// resolved by exactly one finalized or superseded record — nothing
	// dangles after Flush.
	provEmitted := snap.Counter("stream.provisional.emitted")
	provRevised := snap.Counter("stream.provisional.revised")
	provSuperseded := snap.Counter("stream.provisional.superseded")
	provFinalized := snap.Counter("stream.provisional.finalized")
	if provFinalized != uint64(eventsOut) {
		t.Fatalf("exporter: provisional.finalized %d != stream.emitted %d", provFinalized, eventsOut)
	}
	if provEmitted != provFinalized+provSuperseded {
		t.Fatalf("exporter: provisional.emitted %d != finalized %d + superseded %d",
			provEmitted, provFinalized, provSuperseded)
	}
	if provEmitted == 0 || provSuperseded == 0 {
		t.Fatalf("exporter: degenerate provisional traffic: emitted %d superseded %d", provEmitted, provSuperseded)
	}
	// The delivered Update records must match the counters tier for tier.
	if updSeen[syslogdigest.StatusProvisional] != provEmitted ||
		updSeen[syslogdigest.StatusRevised] != provRevised ||
		updSeen[syslogdigest.StatusSuperseded] != provSuperseded ||
		updSeen[syslogdigest.StatusFinal] != provFinalized {
		t.Fatalf("delivered updates %v != counters [%d %d %d %d]",
			updSeen, provEmitted, provRevised, provSuperseded, provFinalized)
	}
	if h := snap.Histogram("stream.provisional.latency_seconds"); h == nil || h.Count != provEmitted {
		t.Fatalf("exporter: provisional latency observations %+v, want %d", h, provEmitted)
	}
	if h := snap.Histogram("stream.provisional.revision_churn"); h == nil || h.Count != provFinalized {
		t.Fatalf("exporter: revision churn observations %+v, want %d", h, provFinalized)
	}
	// Every provisional or revised record rebuilt its whole event: one
	// observation each, and their sum — the tier's member visits — is the
	// membership of the records delivered.
	if h := snap.Histogram("stream.provisional.publication_members"); h == nil ||
		h.Count != provEmitted+provRevised || h.Sum != float64(pubVisits) {
		t.Fatalf("exporter: publication members %+v, want %d observations summing to %d",
			h, provEmitted+provRevised, pubVisits)
	}
	// Pending-pool books: every record handed out was either returned or is
	// still live (gets == puts + live), and after Flush force-closed every
	// group nothing is live — the pool recycled the entire run.
	poolGets := snap.Counter("stream.pool.pending.gets")
	poolPuts := snap.Counter("stream.pool.pending.puts")
	poolLive := snap.Gauge("stream.pool.pending.live")
	if poolGets == 0 {
		t.Fatal("exporter: pool handed out no records on a real feed")
	}
	if poolGets != poolPuts+uint64(poolLive) {
		t.Fatalf("exporter: pool gets %d != puts %d + live %v", poolGets, poolPuts, poolLive)
	}
	if poolLive != 0 {
		t.Fatalf("exporter: pool live %v after flush, want 0", poolLive)
	}
	if wm := snap.Gauge("stream.watermark_unix_seconds"); wm <= 0 {
		t.Fatalf("exporter: watermark gauge %v, want positive", wm)
	}
	// Runtime books (obs.PublishRuntime): refreshed by the snapshot-time
	// sampler, so the scrape must carry live allocator totals that obey
	// mallocs >= frees, with the live count being exactly the difference.
	rtMallocs := snap.Gauge("runtime.heap.mallocs")
	rtFrees := snap.Gauge("runtime.heap.frees")
	if rtMallocs <= 0 || rtFrees < 0 || rtMallocs < rtFrees {
		t.Fatalf("exporter: runtime heap books mallocs %v frees %v", rtMallocs, rtFrees)
	}
	if rtLive := snap.Gauge("runtime.heap.live_objects"); rtLive != rtMallocs-rtFrees {
		t.Fatalf("exporter: runtime live %v != mallocs %v - frees %v", rtLive, rtMallocs, rtFrees)
	}

	// Sharded-mode reconciliation: every released message was processed by
	// exactly one shard.
	if workers > 1 {
		var shardPushed uint64
		for k := 0; k < workers; k++ {
			shardPushed += snap.Counter(fmt.Sprintf("stream.shard.%d.pushed", k))
		}
		dropped := snap.Counter("stream.dropped.late") + snap.Counter("stream.dropped.overflow")
		if want := snap.Counter("stream.pushed") - dropped; shardPushed != want {
			t.Fatalf("exporter: sum(shard.pushed) %d != pushed-dropped %d", shardPushed, want)
		}
	}

	code, body = httpGet(t, srv.Addr(), "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz after run = %d (%s)", code, body)
	}
	var hst obs.Status
	if err := json.Unmarshal(body, &hst); err != nil || !hst.Ready || !hst.Live {
		t.Fatalf("healthz body: %s (err %v)", body, err)
	}
	return emitLat.Buckets
}

// TestUnresolvedLocsReconcile: group.rule.unresolved_locations counts
// the messages whose location the dictionary never interned. A feed with
// every 40th message repeated under a hostname no config names must report
// exactly the injected count — those messages resolve to the unknown
// router's router-level location, an overflow ID — and the same count from
// the serial engine, the in-process sharded engine and a two-shard loopback
// cluster (where the tally crosses the wire in the Decisions frame), with
// the same events out of all three — and, no shard being lost, no batch
// replayed.
func TestUnresolvedLocsReconcile(t *testing.T) {
	ds, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: 12, Seed: 11,
		Duration: 6 * time.Hour, RateScale: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := syslogdigest.NewLearner(syslogdigest.DefaultParams()).Learn(ds.Messages, ds.Net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	feed, injected := withUnconfiguredRouter(t, ds.Messages)
	srv, err := cluster.Serve("127.0.0.1:0", cluster.ServerConfig{Dict: kb.Dictionary(), Rules: kb.RuleBase})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	wantEvents := -1
	for _, shape := range []struct {
		name string
		opts syslogdigest.StreamerOptions
	}{
		{"serial", syslogdigest.StreamerOptions{StreamWorkers: 1}},
		{"sharded", syslogdigest.StreamerOptions{StreamWorkers: 3}},
		{"cluster", syslogdigest.StreamerOptions{ShardAddrs: []string{srv.Addr(), srv.Addr()}}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			d, err := syslogdigest.NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			st := syslogdigest.NewStreamerWith(d, shape.opts)
			defer st.Close()
			st.Instrument(reg)
			events := 0
			for _, m := range feed {
				res, err := st.Push(m)
				if err != nil {
					t.Fatal(err)
				}
				if res != nil {
					events += len(res.Events)
				}
			}
			res, err := st.Flush()
			if err != nil {
				t.Fatal(err)
			}
			if res != nil {
				events += len(res.Events)
			}
			snap := reg.Snapshot()
			if got := snap.Counter("group.rule.unresolved_locations"); got != injected {
				t.Fatalf("unresolved locations %d, want the %d injected messages", got, injected)
			}
			// The wire books of a healthy run: every batch written once. (Absent
			// series read 0, so the in-process shapes pass trivially.)
			if rc, rp := snap.Counter("stream.cluster.reconnects"), snap.Counter("stream.cluster.replayed_batches"); rc != 0 || rp != 0 {
				t.Fatalf("reconnects=%d replayed_batches=%d with no shard ever lost, want 0 and 0", rc, rp)
			}
			if len(shape.opts.ShardAddrs) > 0 && snap.Counter("stream.cluster.batches_sent") == 0 {
				t.Fatal("the cluster shape sent no batches: the wire books above checked nothing")
			}
			t.Logf("%d messages (%d injected) -> %d events", len(feed), injected, events)
			if wantEvents < 0 {
				wantEvents = events
			} else if events != wantEvents {
				t.Fatalf("%d events, the serial engine %d", events, wantEvents)
			}
		})
	}
}

// withUnconfiguredRouter repeats every 40th message under a hostname no
// config names and returns the feed with the number of repeats.
func withUnconfiguredRouter(t *testing.T, msgs []syslogmsg.Message) ([]syslogmsg.Message, uint64) {
	t.Helper()
	var feed []syslogmsg.Message
	injected := uint64(0)
	for i, m := range msgs {
		feed = append(feed, m)
		if i%40 == 0 {
			m.Router = "unconfigured-rtr"
			feed = append(feed, m)
			injected++
		}
	}
	if injected < 10 {
		t.Fatalf("only %d messages injected into a feed of %d", injected, len(msgs))
	}
	return feed, injected
}

// grouperBook is the grouper's numbers under the names they are published
// by: cumulative tallies as counters, current levels as gauges.
type grouperBook struct {
	counters map[string]uint64
	gauges   map[string]float64
}

// snapshotBook takes a streamer snapshot and reads the grouper's book out of
// it — the persisted form of the engine's Stats(), field for field. The
// pool's tallies are runtime plumbing no snapshot carries; the caller knows
// them.
func snapshotBook(t *testing.T, st *syslogdigest.Streamer) (grouperBook, []byte) {
	t.Helper()
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Engine *stream.EngineState `json:"engine"`
	}
	if _, err := checkpoint.Decode(snap, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Engine == nil {
		t.Fatal("snapshot of a streamer that never built its engine")
	}
	mg := payload.Engine.Inc.Merger
	b := grouperBook{
		counters: map[string]uint64{
			"group.merges.temporal":          uint64(mg.TemporalMerges),
			"group.merges.rule":              uint64(mg.RuleMerges),
			"group.merges.cross":             uint64(mg.CrossMerges),
			"group.cross.candidates_scanned": mg.CrossCandidates,
		},
		gauges: map[string]float64{"stream.state.groups": float64(len(mg.Groups))},
	}
	for _, g := range mg.Groups {
		b.gauges["stream.state.messages"] += float64(len(g.Members))
	}
	for _, l := range payload.Engine.Inc.Locals {
		b.counters["group.rule.candidates_scanned"] += l.RuleCandidates
		b.counters["group.rule.pairs_matched"] += l.RulePairs
		b.counters["group.rule.unresolved_locations"] += l.UnresolvedLocs
		b.counters["stream.state.evictions"] += uint64(l.Evictions)
		b.gauges["stream.state.streams"] += float64(len(l.Models))
	}
	return b, snap
}

// TestPublishedEqualsTallies: the grouper keeps one book (its Stats(), which
// is what a checkpoint persists) and one publisher turns it into metrics,
// so on every engine shape, fresh or restored from a snapshot taken at the
// midpoint, after Flush each group.*, stream.state.* and
// stream.pool.pending.* counter reads the work this process did — the
// book's movement since the engine was built or restored — each gauge
// reads the current level, and the three shapes publish the same values.
func TestPublishedEqualsTallies(t *testing.T) {
	ds, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: 12, Seed: 11,
		Duration: 6 * time.Hour, RateScale: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := syslogdigest.NewLearner(syslogdigest.DefaultParams()).Learn(ds.Messages, ds.Net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	feed, _ := withUnconfiguredRouter(t, ds.Messages)
	srv, err := cluster.Serve("127.0.0.1:0", cluster.ServerConfig{Dict: kb.Dictionary(), Rules: kb.RuleBase})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	push := func(t *testing.T, st *syslogdigest.Streamer, msgs []syslogmsg.Message) {
		t.Helper()
		for _, m := range msgs {
			if _, err := st.Push(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial := map[bool]obs.Snapshot{} // by restored
	for _, shape := range []struct {
		name string
		opts syslogdigest.StreamerOptions
	}{
		{"serial", syslogdigest.StreamerOptions{StreamWorkers: 1}},
		{"sharded2", syslogdigest.StreamerOptions{StreamWorkers: 2}},
		{"cluster2", syslogdigest.StreamerOptions{ShardAddrs: []string{srv.Addr(), srv.Addr()}}},
	} {
		for _, restored := range []bool{false, true} {
			name := shape.name + "/fresh"
			if restored {
				name = shape.name + "/restored"
			}
			t.Run(name, func(t *testing.T) {
				// No reorder buffer: every Push reaches the engine at once, so
				// the pool hands out one record per message this process pushes.
				opts := shape.opts
				opts.ReorderTolerance = -1
				d, err := syslogdigest.NewDigester(kb)
				if err != nil {
					t.Fatal(err)
				}
				st := syslogdigest.NewStreamerWith(d, opts)
				defer func() { st.Close() }()
				base := grouperBook{}
				rest := feed
				if restored {
					push(t, st, feed[:len(feed)/2])
					var snap []byte
					base, snap = snapshotBook(t, st)
					st.Close()
					if st, err = syslogdigest.RestoreStreamer(d, snap, opts); err != nil {
						t.Fatal(err)
					}
					rest = feed[len(feed)/2:]
					if base.counters["group.rule.candidates_scanned"] == 0 || base.counters["group.merges.temporal"] == 0 {
						t.Fatalf("nothing tallied before the snapshot (%v): the restored row would check what the fresh row does", base.counters)
					}
				}
				reg := obs.NewRegistry()
				st.Instrument(reg)
				push(t, st, rest)
				if _, err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				now, _ := snapshotBook(t, st)
				pub := reg.Snapshot()
				if n := pub.Counter("stream.dropped.late") + pub.Counter("stream.dropped.overflow"); n != 0 {
					t.Fatalf("%d messages dropped on an in-order feed: the pool expectation below is off", n)
				}

				want := map[string]uint64{
					"stream.pool.pending.gets": uint64(len(rest)),
					"stream.pool.pending.puts": uint64(len(rest)), // Flush closed every group
				}
				for name, v := range now.counters {
					want[name] = v - base.counters[name]
				}
				for name, v := range want {
					if got := pub.Counter(name); got != v {
						t.Errorf("%s published %d, the book moved by %d (%d -> %d)", name, got, v, base.counters[name], now.counters[name])
					}
				}
				now.gauges["stream.pool.pending.live"] = 0
				for name, v := range now.gauges {
					if got := pub.Gauge(name); got != v {
						t.Errorf("%s published %v, the level is %v", name, got, v)
					}
				}
				if now.gauges["stream.state.messages"] != 0 || now.gauges["stream.state.streams"] == 0 || want["group.rule.unresolved_locations"] == 0 {
					t.Errorf("degenerate book after Flush: %v %v", now.gauges, want)
				}

				if shape.name == "serial" {
					serial[restored] = pub
					return
				}
				ref, ok := serial[restored]
				if !ok {
					t.Fatal("no serial run to compare with")
				}
				for name := range want {
					if got, s := pub.Counter(name), ref.Counter(name); got != s {
						t.Errorf("%s published %d, the serial engine %d", name, got, s)
					}
				}
				for name := range now.gauges {
					if got, s := pub.Gauge(name), ref.Gauge(name); got != s {
						t.Errorf("%s published %v, the serial engine %v", name, got, s)
					}
				}
			})
		}
	}
}

func httpGet(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}
