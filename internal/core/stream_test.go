package core

import (
	"bytes"
	"testing"
	"time"

	"syslogdigest/internal/gen"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
)

// TestStreamerOptionsDecideShape pins the literal meaning of the three shape
// fields of StreamerOptions — there is nothing to inherit them from: the
// engine is serial unless StreamWorkers > 1 (sharded) or ShardAddrs is set
// (sharded over the wire, whatever StreamWorkers says), the run carries
// Updates only under a positive ProvisionalHorizon, and the digester's
// batch-engine choice (SetStreamWorkers) does not reach a streamer.
func TestStreamerOptionsDecideShape(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	srv := startShardServer(t, kb)
	for _, tc := range []struct {
		name         string
		batchWorkers int // Digester.SetStreamWorkers before the streamer is built
		opts         StreamerOptions
		sharded      bool // the engine is the dispatcher/merge core
		wire         bool // its shards sit behind TCP links
		updates      bool
	}{
		{name: "zero value", opts: StreamerOptions{}},
		{name: "workers 1", opts: StreamerOptions{StreamWorkers: 1}},
		{name: "workers 3", opts: StreamerOptions{StreamWorkers: 3}, sharded: true},
		{name: "addrs", opts: StreamerOptions{ShardAddrs: loopbackAddrs(srv, 2)}, sharded: true, wire: true},
		{name: "addrs over workers 1", opts: StreamerOptions{StreamWorkers: 1, ShardAddrs: loopbackAddrs(srv, 1)}, sharded: true, wire: true},
		{name: "horizon negative", opts: StreamerOptions{ProvisionalHorizon: -provHorizon}},
		{name: "horizon positive", opts: StreamerOptions{ProvisionalHorizon: provHorizon}, updates: true},
		{name: "batch workers stay out", batchWorkers: 4, opts: StreamerOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
			d.SetStreamWorkers(tc.batchWorkers)
			s := NewStreamerWith(d, tc.opts)
			defer s.Close()
			reg := obs.NewRegistry()
			s.Instrument(reg)
			updates := 0
			collect := func(res *DigestResult, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if res != nil {
					updates += len(res.Updates)
				}
			}
			for _, m := range ds.Messages {
				collect(s.Push(m))
			}
			collect(s.Flush())

			_, sharded := s.eng.(*stream.ShardedEngine)
			if sharded != tc.sharded {
				t.Errorf("engine is %T, want sharded=%v", s.eng, tc.sharded)
			}
			if wire := reg.Snapshot().Counter("stream.cluster.batches_sent") > 0; wire != tc.wire {
				t.Errorf("batches crossed the wire: %v, want %v", wire, tc.wire)
			}
			if (updates > 0) != tc.updates {
				t.Errorf("%d updates, want any=%v", updates, tc.updates)
			}
		})
	}
}

// TestStreamerMonotonicAcrossFlushes: the late-drop frontier persists
// across Flush — the first message after a flush cannot rewind behind what
// was already released (it drops instead), while equal and later
// timestamps stay accepted. (This guards the same overlap bug the old
// batch streamer had, with drop-and-count in place of the hard error.)
func TestStreamerMonotonicAcrossFlushes(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	d, _ := NewDigester(kb)
	s := NewStreamerWith(d, StreamerOptions{ReorderTolerance: -1})
	reg := obs.NewRegistry()
	s.Instrument(reg)
	t0 := time.Date(2010, 1, 1, 12, 0, 0, 0, time.UTC)
	mk := func(at time.Time) syslogmsg.Message {
		return syslogmsg.Message{Time: at, Router: "x", Code: "A-1-B", Detail: "d"}
	}
	if _, err := s.Push(mk(t0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// A message before t0 must still drop after the flush.
	if res, err := s.Push(mk(t0.Add(-time.Hour))); err != nil || res != nil {
		t.Fatalf("backwards message after flush: res=%v err=%v, want drop", res, err)
	}
	if got := reg.Snapshot().Counter("stream.dropped.late"); got != 1 {
		t.Fatalf("dropped.late = %d, want 1", got)
	}
	// Equal and later timestamps stay accepted.
	if _, err := s.Push(mk(t0)); err != nil {
		t.Fatalf("equal timestamp after flush rejected: %v", err)
	}
	if _, err := s.Push(mk(t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("stream.dropped.late"); got != 1 {
		t.Fatalf("dropped.late grew to %d, want 1", got)
	}
}

// TestStreamerMetricsReconcile drives pushes, a reorder, a late drop, and a
// flush, then reconciles every stream.* counter: pushed = released +
// dropped + buffered, emitted events cover exactly the released messages.
func TestStreamerMetricsReconcile(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	d, _ := NewDigester(kb)
	s := NewStreamerWith(d, StreamerOptions{ReorderTolerance: 2 * time.Second})
	reg := obs.NewRegistry()
	s.Instrument(reg)
	t0 := time.Date(2010, 1, 1, 12, 0, 0, 0, time.UTC)
	mk := func(at time.Time) syslogmsg.Message {
		return syslogmsg.Message{Time: at, Router: "x", Code: "A-1-B", Detail: "d"}
	}
	// In-order pushes 10s apart: everything beyond the tolerance releases.
	for i := 0; i < 5; i++ {
		if _, err := s.Push(mk(t0.Add(time.Duration(i) * 10 * time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	// One in-tolerance reorder (1s behind the newest arrival)...
	if _, err := s.Push(mk(t0.Add(39 * time.Second))); err != nil {
		t.Fatal(err)
	}
	// ...and one hopeless straggler behind the released frontier.
	if _, err := s.Push(mk(t0)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	msgs := 0
	if res != nil {
		events = len(res.Events)
		for _, e := range res.Events {
			msgs += e.Size()
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter("stream.pushed"); got != 7 {
		t.Errorf("pushed = %d, want 7", got)
	}
	if got := snap.Counter("stream.reordered"); got != 1 {
		t.Errorf("reordered = %d, want 1", got)
	}
	if got := snap.Counter("stream.dropped.late"); got != 1 {
		t.Errorf("dropped.late = %d, want 1", got)
	}
	if got := snap.Gauge("stream.buffered"); got != 0 {
		t.Errorf("buffered = %v after flush, want 0", got)
	}
	if msgs != 6 {
		t.Errorf("emitted events cover %d messages, want 6 (7 pushed - 1 dropped)", msgs)
	}
	if got := snap.Counter("stream.emitted"); got != uint64(events) {
		t.Errorf("stream.emitted = %d, want %d", got, events)
	}
	merges := snap.Counter("group.merges.temporal") + snap.Counter("group.merges.rule") + snap.Counter("group.merges.cross")
	if want := uint64(msgs - events); merges != want {
		t.Errorf("merges = %d, want released-emitted = %d", merges, want)
	}
	if h := snap.Histogram("stream.emit_latency_seconds"); h == nil || h.Count != uint64(events) {
		t.Errorf("emit latency observations = %+v, want %d", h, events)
	}
}

// TestStreamerSteadyStateAllocs pins the per-push allocation budget of the
// warm path: no per-flush buffer rebuilds, no per-message window
// reallocations — just the engine's per-message node plus map/heap noise.
// (The old batch streamer dropped its whole buffer every flush and
// reallocated it from scratch; this is the satellite guard against that
// pattern coming back.)
func TestStreamerSteadyStateAllocs(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	d, _ := NewDigester(kb)
	s := NewStreamerWith(d, StreamerOptions{})
	t0 := time.Date(2010, 1, 1, 12, 0, 0, 0, time.UTC)
	step := 0
	push := func() {
		m := syslogmsg.Message{Time: t0.Add(time.Duration(step) * time.Second),
			Router: "x", Code: "A-1-B", Detail: "d"}
		step++
		if _, err := s.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2048; i++ {
		push() // warm: caches filled, rings grown, heap capacity settled
	}
	avg := testing.AllocsPerRun(512, push)
	// The warm path allocates the engine node and little else; 8 leaves
	// headroom for map growth while still catching any per-push rebuild of
	// buffers or windows.
	if avg > 8 {
		t.Fatalf("steady-state allocations per push = %.1f, want <= 8", avg)
	}
}

// TestDigesterMetrics digests one batch and reconciles every digest.* and
// group.merges.* metric against the returned result.
func TestDigesterMetrics(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	d, _ := NewDigester(kb)
	reg := obs.NewRegistry()
	d.Instrument(reg)
	res, err := d.Digest(ds.Messages)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("digest.batches"); got != 1 {
		t.Errorf("batches = %d", got)
	}
	if got := snap.Counter("digest.messages_in"); got != uint64(len(ds.Messages)) {
		t.Errorf("messages_in = %d, want %d", got, len(ds.Messages))
	}
	if got := snap.Counter("digest.events_out"); got != uint64(len(res.Events)) {
		t.Errorf("events_out = %d, want %d", got, len(res.Events))
	}
	if got := snap.Gauge("digest.compression_ratio"); got != res.CompressionRatio() {
		t.Errorf("ratio = %v, want %v", got, res.CompressionRatio())
	}
	// Each stage histogram saw exactly one batch.
	for _, name := range []string{"digest.augment_seconds", "digest.group_seconds", "digest.build_seconds", "digest.batch_size"} {
		h := snap.Histogram(name)
		if h == nil || h.Count != 1 {
			t.Errorf("%s = %+v, want 1 observation", name, h)
		}
	}
	// Every union-find merge removes one group, so messages - events must
	// equal the per-pass merge total.
	merges := snap.Counter("group.merges.temporal") + snap.Counter("group.merges.rule") + snap.Counter("group.merges.cross")
	if want := uint64(len(ds.Messages) - len(res.Events)); merges != want {
		t.Errorf("merge total = %d, want %d", merges, want)
	}
}

// TestKnowledgeBaseRoundTripStable is the regression test for the config
// round-trip bug: Save used to drop Params.Template and CalibrateTemporal,
// so Save→Load→Save was not a fixed point and a reloaded knowledge base
// silently reverted to default learning options.
func TestKnowledgeBaseRoundTripStable(t *testing.T) {
	params := DefaultParams()
	params.Template.K = 7
	params.Template.MaxDepth = 9
	params.Template.MinChildFraction = 0.25
	params.Template.MinChildCount = 3
	params.Template.NoPreMask = true
	kb, _ := learnSmallWith(t, gen.DatasetA, params)
	kb.Params.CalibrateTemporal = true

	var first bytes.Buffer
	if err := kb.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKnowledgeBase(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Params.Template != kb.Params.Template {
		t.Fatalf("template options lost: %+v != %+v", loaded.Params.Template, kb.Params.Template)
	}
	if !loaded.Params.CalibrateTemporal {
		t.Fatal("CalibrateTemporal lost")
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save → Load → Save is not a fixed point")
	}
}

// learnSmallWith is learnSmall with explicit params.
func learnSmallWith(t *testing.T, kind gen.DatasetKind, params Params) (*KnowledgeBase, *gen.Dataset) {
	t.Helper()
	ds, err := gen.Generate(gen.Spec{
		Kind: kind, Routers: 16, Seed: 3,
		Duration: 36 * time.Hour, RateScale: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := NewLearner(params).Learn(ds.Messages, ds.Net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	return kb, ds
}
