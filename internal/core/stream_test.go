package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/event"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
)

// TestStreamerOptionsDecideShape pins the literal meaning of the three shape
// fields of StreamerOptions — there is nothing to inherit them from: the
// engine is serial unless StreamWorkers > 1 (sharded) or ShardAddrs is set
// (sharded over the wire, whatever StreamWorkers says), and the run carries
// Updates only under a positive ProvisionalHorizon.
func TestStreamerOptionsDecideShape(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	srv := fixtureFor(t, corpusA).server(t)
	for _, tc := range []struct {
		name    string
		opts    StreamerOptions
		sharded bool // the engine is the dispatcher/merge core
		wire    bool // its shards sit behind TCP links
		updates bool
	}{
		{name: "zero value", opts: StreamerOptions{}},
		{name: "workers 1", opts: StreamerOptions{StreamWorkers: 1}},
		{name: "workers 3", opts: StreamerOptions{StreamWorkers: 3}, sharded: true},
		{name: "addrs", opts: StreamerOptions{ShardAddrs: loopbackAddrs(srv, 2)}, sharded: true, wire: true},
		{name: "addrs over workers 1", opts: StreamerOptions{StreamWorkers: 1, ShardAddrs: loopbackAddrs(srv, 1)}, sharded: true, wire: true},
		{name: "horizon negative", opts: StreamerOptions{ProvisionalHorizon: -provHorizon}},
		{name: "horizon positive", opts: StreamerOptions{ProvisionalHorizon: provHorizon}, updates: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
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
	kb := *learnSmallWith(t, gen.DatasetA, params).kb // the fixture stays as learned
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

// TestStreamerReorderCapBoundary: the reorder buffer must never hold more
// than ReorderCap messages — the historical off-by-one let it reach cap+1.
// Covers both sides of the cap's release: the oldest buffered message
// leaves to make room, and a new arrival that precedes everything buffered
// is itself the head and leaves at once.
func TestStreamerReorderCapBoundary(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 4
	s := NewStreamerWith(d, StreamerOptions{ReorderTolerance: time.Hour, ReorderCap: cap})
	defer s.Close()
	t0 := time.Date(2010, 1, 1, 12, 0, 0, 0, time.UTC)
	mk := func(at time.Time) syslogmsg.Message {
		return syslogmsg.Message{Time: at, Router: "x", Code: "A-1-B", Detail: "d"}
	}
	// Fill to the cap, then keep pushing: the buffer must stay at the bound,
	// with each overflow releasing exactly one message.
	for i := 0; i < cap+3; i++ {
		if _, err := s.Push(mk(t0.Add(time.Duration(i) * time.Second))); err != nil {
			t.Fatal(err)
		}
		if s.fe.len() > cap {
			t.Fatalf("after push %d: buffer holds %d > cap %d", i, s.fe.len(), cap)
		}
	}
	if s.fe.len() != cap {
		t.Fatalf("buffer holds %d, want exactly %d", s.fe.len(), cap)
	}
	released := s.Watermark()
	// A full buffer plus an arrival older than everything buffered (but not
	// behind the frontier): the arrival itself releases, and the buffer must
	// not shrink or grow.
	mid := released.Add(500 * time.Millisecond)
	if head := s.fe.inOrder()[0].m.Time; mid.After(head) {
		t.Fatalf("test setup: %v should precede buffered head %v", mid, head)
	}
	if _, err := s.Push(mk(mid)); err != nil {
		t.Fatal(err)
	}
	if s.fe.len() != cap {
		t.Fatalf("releasing the arrival changed buffer to %d, want %d", s.fe.len(), cap)
	}
	if wm := s.Watermark(); !wm.Equal(mid) {
		t.Fatalf("watermark %v, want %v (the arrival was the head released)", wm, mid)
	}
}

// TestStreamerSnapshotSplitBuffer snapshots a streamer whose reorder buffer
// holds both in-order arrivals (the run) and late ones (the heap), late
// ones tied in time with run entries. Snapshot → restore → snapshot gives
// equal bytes; the restored streamer, fed the rest of the feed, matches the
// uninterrupted one in its events, in its snapshot, and in the order its
// front end releases what is still buffered at the end.
func TestStreamerSnapshotSplitBuffer(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	// Corpus A's first 2000 messages; every third is followed by a late
	// repeat of the message two before it, at that message's time.
	var feed []syslogmsg.Message
	for i, m := range ds.Messages[:2000] {
		m.Index = uint64(len(feed))
		feed = append(feed, m)
		if i%3 == 2 {
			dup := ds.Messages[i-2]
			dup.Index = uint64(len(feed))
			feed = append(feed, dup)
		}
	}
	opts := StreamerOptions{ReorderTolerance: 10 * time.Minute}
	newStreamer := func() *Streamer {
		d, err := NewDigester(kb)
		if err != nil {
			t.Fatal(err)
		}
		return NewStreamerWith(d, opts)
	}
	var events [2][]event.Event
	push := func(k int, s *Streamer, msgs []syslogmsg.Message) {
		for _, m := range msgs {
			res, err := s.Push(m)
			if err != nil {
				t.Fatal(err)
			}
			if res != nil {
				events[k] = append(events[k], res.Events...)
			}
		}
	}
	cut := len(feed) / 2
	whole := newStreamer()
	defer whole.Close()
	push(0, whole, feed[:cut])
	if whole.fe.head == len(whole.fe.run) || len(whole.fe.late) == 0 {
		t.Fatalf("setup: buffer not split: run %d, heap %d", len(whole.fe.run)-whole.fe.head, len(whole.fe.late))
	}
	snap, err := whole.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStreamer(d, snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, again) {
		t.Fatal("snapshot → restore → snapshot changed the bytes")
	}
	events[1] = slices.Clone(events[0])
	push(0, whole, feed[cut:])
	push(1, restored, feed[cut:])
	if !reflect.DeepEqual(events[0], events[1]) {
		t.Fatalf("restored run closed %d events, uninterrupted %d, or they differ", len(events[1]), len(events[0]))
	}
	a, err := whole.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("restored and uninterrupted snapshots differ at the end of the feed")
	}
	// Release what is still buffered into recording engines.
	var fed [2][]stream.Message
	for k, s := range []*Streamer{whole, restored} {
		s.eng.Close()
		rec := &failEngine{failAt: math.MaxInt}
		s.eng = rec
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		fed[k] = rec.fed
	}
	if len(fed[0]) == 0 || !reflect.DeepEqual(fed[0], fed[1]) {
		t.Fatalf("final release: uninterrupted fed %d messages, restored %d, or in another order", len(fed[0]), len(fed[1]))
	}
}

// failEngine is a streamEngine whose Observe fails on the Nth call,
// emitting one synthetic event per successful call and recording what it
// was fed.
type failEngine struct {
	calls    int
	failAt   int
	progress grouping.Progress
	fed      []stream.Message
}

var errBoom = errors.New("engine: boom")

func (f *failEngine) Observe(m stream.Message) ([]event.Event, error) {
	f.calls++
	if f.calls >= f.failAt {
		return nil, errBoom
	}
	f.progress.Advance(m.Time)
	f.fed = append(f.fed, m)
	return []event.Event{{ID: f.calls}}, nil
}
func (f *failEngine) Drain() []event.Event                    { return nil }
func (f *failEngine) Close()                                  {}
func (f *failEngine) Progress() grouping.Progress             { return f.progress }
func (f *failEngine) Pending() int                            { return 0 }
func (f *failEngine) SetClusterMetrics(stream.ClusterMetrics) {}
func (f *failEngine) TakeUpdates() []event.Update             { return nil }
func (f *failEngine) State() (stream.EngineState, []event.Event, []event.Update, error) {
	return stream.EngineState{}, nil, nil, errBoom
}
func (f *failEngine) Restore(stream.EngineState) error { return errBoom }

// TestStreamerFlushPartialOnError: when a feed fails mid-Flush, the events
// already closed come back alongside the error (nothing emitted is lost),
// the unfed remainder stays buffered, and stream.buffered tells the truth.
func TestStreamerFlushPartialOnError(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStreamerWith(d, StreamerOptions{ReorderTolerance: time.Hour})
	reg := obs.NewRegistry()
	s.Instrument(reg)
	t0 := time.Date(2010, 1, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		m := syslogmsg.Message{Time: t0.Add(time.Duration(i) * time.Second),
			Router: "x", Code: "A-1-B", Detail: "d"}
		if _, err := s.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	if s.fe.len() != 4 {
		t.Fatalf("setup: buffered %d, want 4", s.fe.len())
	}
	s.eng = &failEngine{failAt: 3}
	res, err := s.Flush()
	if !errors.Is(err, errBoom) {
		t.Fatalf("Flush error = %v, want errBoom", err)
	}
	if res == nil || len(res.Events) != 2 {
		t.Fatalf("Flush returned %v events alongside the error, want 2", res)
	}
	if res.Events[0].ID != 1 || res.Events[1].ID != 2 {
		t.Fatalf("partial events %v, want IDs 1,2 in order", res.Events)
	}
	if s.fe.len() != 1 {
		t.Fatalf("buffer holds %d after failed flush, want 1 (the unfed remainder)", s.fe.len())
	}
	if got := reg.Snapshot().Gauge("stream.buffered"); got != 1 {
		t.Fatalf("stream.buffered gauge = %v, want 1", got)
	}
}

// TestStreamerCapReleaseKeepsArrival: an arrival that finds the buffer at
// its cap forces the head out; when feeding that head fails, the error comes
// back, the head is gone, and the arrival is still buffered — counted by
// stream.pushed, it must not vanish without being fed, buffered or dropped.
func TestStreamerCapReleaseKeepsArrival(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 4
	s := NewStreamerWith(d, StreamerOptions{ReorderTolerance: time.Hour, ReorderCap: cap})
	reg := obs.NewRegistry()
	s.Instrument(reg)
	s.eng = &failEngine{failAt: 1}
	t0 := time.Date(2010, 1, 1, 12, 0, 0, 0, time.UTC)
	mk := func(at time.Time) syslogmsg.Message {
		return syslogmsg.Message{Time: at, Router: "x", Code: "A-1-B", Detail: "d"}
	}
	for i := 0; i < cap; i++ {
		if _, err := s.Push(mk(t0.Add(time.Duration(i) * time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	arrival := t0.Add(time.Minute)
	if _, err := s.Push(mk(arrival)); !errors.Is(err, errBoom) {
		t.Fatalf("Push error = %v, want errBoom from the forced release", err)
	}
	if s.fe.len() != cap {
		t.Fatalf("buffer holds %d, want %d (the arrival in the released head's place)", s.fe.len(), cap)
	}
	kept := false
	for _, it := range s.fe.inOrder() {
		kept = kept || it.m.Time.Equal(arrival)
		if it.m.Time.Equal(t0) {
			t.Fatal("the head whose feed failed is still buffered")
		}
	}
	if !kept {
		t.Fatal("the arrival was lost: neither fed, buffered nor dropped")
	}
	if got := reg.Snapshot().Gauge("stream.buffered"); got != cap {
		t.Fatalf("stream.buffered = %v, want %d", got, cap)
	}
}

// TestStreamerOverflowDropCounting: a drop caused by the cap forcing the
// frontier forward early (the arrival is still within tolerance) counts as
// stream.dropped.overflow; an arrival beyond the tolerance counts as
// stream.dropped.late. The two series separate "buffer undersized" from
// "sender misbehaved".
func TestStreamerOverflowDropCounting(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStreamerWith(d, StreamerOptions{ReorderTolerance: 10 * time.Second, ReorderCap: 2})
	defer s.Close()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	t0 := time.Date(2010, 1, 1, 12, 0, 0, 0, time.UTC)
	mk := func(at time.Time) syslogmsg.Message {
		return syslogmsg.Message{Time: at, Router: "x", Code: "A-1-B", Detail: "d"}
	}
	// Three in-tolerance arrivals against a cap of 2: the third forces t0
	// out early, moving the frontier to t0 while the tolerance window still
	// reaches back to maxSeen-10s.
	for i := 0; i < 3; i++ {
		if _, err := s.Push(mk(t0.Add(time.Duration(i) * time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	if wm := s.Watermark(); !wm.Equal(t0) {
		t.Fatalf("setup: frontier %v, want %v", wm, t0)
	}
	// Behind the frontier but within tolerance of the newest arrival: only
	// the undersized buffer lost its slot — an overflow drop.
	if res, err := s.Push(mk(t0.Add(-time.Second))); err != nil || res != nil {
		t.Fatalf("overflow drop: res=%v err=%v, want silent drop", res, err)
	}
	// Behind the frontier and beyond the tolerance: a genuinely late sender.
	if res, err := s.Push(mk(t0.Add(-9 * time.Second))); err != nil || res != nil {
		t.Fatalf("late drop: res=%v err=%v, want silent drop", res, err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("stream.dropped.overflow"); got != 1 {
		t.Fatalf("stream.dropped.overflow = %d, want 1", got)
	}
	if got := snap.Counter("stream.dropped.late"); got != 1 {
		t.Fatalf("stream.dropped.late = %d, want 1", got)
	}
	if got := snap.Counter("stream.pushed"); got != 5 {
		t.Fatalf("stream.pushed = %d, want 5", got)
	}
}

// TestRestoreRejectsFutureVersion: a snapshot stamped with a later format
// version (a newer build's file) must be refused, not misread.
func TestRestoreRejectsFutureVersion(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStreamerWith(d, StreamerOptions{})
	defer st.Close()
	for _, m := range ds.Messages[:200] {
		if _, err := st.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(snap, &env); err != nil {
		t.Fatal(err)
	}
	env["version"] = json.RawMessage("999")
	tampered, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreStreamer(d2, tampered, StreamerOptions{}); err == nil {
		t.Fatal("restore accepted a version-999 snapshot")
	}
}

// TestRestoreErrorsAreTyped: a snapshot this build cannot read and a
// damaged one are refused with errors a caller can tell apart — whichever
// shape it restores into, the damage in the envelope or deep in the
// grouping state's index space.
func TestRestoreErrorsAreTyped(t *testing.T) {
	f := fixtureFor(t, corpusA)
	d, err := NewDigester(f.kb)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStreamerWith(d, StreamerOptions{})
	for _, m := range f.ds.Messages[:400] {
		if _, err := st.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	envelope := func(field, value string) []byte {
		var env map[string]json.RawMessage
		if err := json.Unmarshal(snap, &env); err != nil {
			t.Fatal(err)
		}
		env[field] = json.RawMessage(value)
		out, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	payload := func(mut func(*streamerState)) []byte {
		var ss streamerState
		wm, err := checkpoint.Decode(snap, &ss)
		if err != nil {
			t.Fatal(err)
		}
		mut(&ss)
		out, err := checkpoint.Encode(wm, ss)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		{"newer version", envelope("version", "999"), checkpoint.ErrUnsupportedVersion},
		{"wrong magic", envelope("format", `"someone-elses-checkpoint"`), checkpoint.ErrUnsupportedVersion},
		{"truncated", snap[:len(snap)*2/3], checkpoint.ErrCorrupt},
		{"pending index out of range", payload(func(ss *streamerState) {
			inc := &ss.Engine.Inc
			inc.Merger.CrossWin = append(inc.Merger.CrossWin, len(inc.Pendings)+7)
		}), checkpoint.ErrCorrupt},
		{"unknown update status", payload(func(ss *streamerState) {
			ss.CarryUpdates = append(ss.CarryUpdates, checkpoint.Update{Status: "tentative"})
		}), checkpoint.ErrCorrupt},
	} {
		for _, opts := range []StreamerOptions{{}, {StreamWorkers: 2}, {ShardAddrs: loopbackAddrs(f.server(t), 2)}} {
			d2, err := NewDigester(f.kb)
			if err != nil {
				t.Fatal(err)
			}
			s, err := RestoreStreamer(d2, c.data, opts)
			if err == nil {
				s.Close()
				t.Fatalf("%s (%+v): restore accepted it", c.name, opts)
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("%s (%+v): error %q does not wrap %q", c.name, opts, err, c.want)
			}
		}
	}
}

// TestRestoreVersion1Snapshot: a version-1 snapshot — the same state with
// the engine's progress also copied into the streamer (the released
// frontier), the engine (its last accepted time) and every local (a
// watermark each) — restores into the streamer today's snapshot of that
// state restores into, in either engine shape: the two snapshot to the same
// bytes, drop a late arrival the same way, and finish the feed with the
// same events and updates.
func TestRestoreVersion1Snapshot(t *testing.T) {
	f := fixtureFor(t, corpusA)
	msgs := f.ds.Messages[:3000]
	const cut = 1200
	d, err := NewDigester(f.kb)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStreamerWith(d, StreamerOptions{StreamWorkers: 2, ProvisionalHorizon: provHorizon})
	for _, m := range msgs[:cut] {
		if _, err := st.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	late := msgs[cut]
	late.Time = st.Watermark().Add(-time.Hour) // behind the released frontier and the tolerance
	st.Close()
	old := asVersion1(t, snap)

	for _, sh := range []shape{serial, {workers: 2}} {
		var runs [2][]byte
		for i, data := range [][]byte{snap, old} {
			d2, err := NewDigester(f.kb)
			if err != nil {
				t.Fatal(err)
			}
			s, err := RestoreStreamer(d2, data, f.options(t, sh, provHorizon))
			if err != nil {
				t.Fatalf("%v, version %d: %v", sh, 2-i, err)
			}
			reg := obs.NewRegistry()
			s.Instrument(reg)
			again, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Finals and updates apart: above one worker their interleaving
			// is delivery timing, not output.
			var finals, updates []byte
			record := func(res *DigestResult, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if res == nil {
					return
				}
				for j := range res.Events {
					finals = appendEvent(finals, &res.Events[j])
				}
				for j := range res.Updates {
					updates = appendUpdate(updates, &res.Updates[j])
				}
			}
			record(s.Push(late))
			for _, m := range msgs[cut:] {
				record(s.Push(m))
			}
			record(s.Flush())
			s.Close()
			if n := reg.Snapshot().Counter("stream.dropped.late"); n != 1 {
				t.Fatalf("%v, version %d: stream.dropped.late = %d, want 1", sh, 2-i, n)
			}
			if len(finals) == 0 || len(updates) == 0 {
				t.Fatalf("%v, version %d: the feed after the cut emitted %d final and %d update bytes; the check would be vacuous",
					sh, 2-i, len(finals), len(updates))
			}
			runs[i] = slices.Concat(again, finals, []byte("--\n"), updates)
		}
		if !bytes.Equal(runs[0], runs[1]) {
			t.Fatalf("%v: a version-1 snapshot restored into a different streamer (%d vs %d bytes of snapshot and output)",
				sh, len(runs[1]), len(runs[0]))
		}
	}
}

// asVersion1 rewrites a snapshot in the version-1 layout: the envelope says
// version 1, and beside the merger's progress the payload carries the
// copies that version kept — "released"/"frontier_ns" in the streamer,
// "started"/"last_time_ns" in the engine, and "started"/"watermark_ns" in
// every local (each a second behind the last, as shards lag one another).
func asVersion1(t *testing.T, snap []byte) []byte {
	t.Helper()
	object := func(raw []byte) map[string]json.RawMessage {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	encode := func(v any) json.RawMessage {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	env := object(snap)
	payload := object(env["payload"])
	eng := object(payload["engine"])
	inc := object(eng["inc"])
	merger := object(inc["merger"])
	var wm int64
	if err := json.Unmarshal(merger["watermark_ns"], &wm); err != nil || wm == 0 {
		t.Fatalf("merger watermark %d: %v", wm, err)
	}
	var locals []map[string]json.RawMessage
	if err := json.Unmarshal(inc["locals"], &locals); err != nil {
		t.Fatal(err)
	}
	for i, l := range locals {
		l["started"] = merger["started"]
		l["watermark_ns"] = encode(wm - int64(i)*int64(time.Second))
	}
	inc["locals"] = encode(locals)
	eng["inc"] = encode(inc)
	eng["started"] = merger["started"]
	eng["last_time_ns"] = merger["watermark_ns"]
	payload["engine"] = encode(eng)
	payload["released"] = merger["started"]
	payload["frontier_ns"] = merger["watermark_ns"]
	env["payload"] = encode(payload)
	env["version"] = encode(1)
	return encode(env)
}

// TestRestoreCommittedSnapshot: testdata holds a version-2 checkpoint an
// earlier build wrote (serial, provisional tier on, the first 300 messages
// of corpus A's fixture with every 40th repeated under a hostname no config
// names, so every tally but the evictions and cross merges is non-zero). It
// must restore and snapshot again byte for byte: the checkpoint format —
// the grouper's books in it included — has not moved.
func TestRestoreCommittedSnapshot(t *testing.T) {
	f := fixtureFor(t, corpusA)
	old, err := os.ReadFile("testdata/snapshot-v2-serial-provisional.json")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDigester(f.kb)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RestoreStreamer(d, old, StreamerOptions{ProvisionalHorizon: provHorizon})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	again, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, old) {
		t.Fatalf("the committed snapshot (%d bytes) re-encodes to %d different bytes", len(old), len(again))
	}
}

// TestRestoreStatsInMemory: an engine's State restored into a new engine in
// memory, with no JSON in between, and the streamer's snapshot restored
// through JSON both give back the Stats the engine had, serial and at two
// workers. A state carries the books whole; the live levels in them
// (OpenGroups, OpenMessages, Streams) are recounted on restore, never
// added to what the restored structure counts.
func TestRestoreStatsInMemory(t *testing.T) {
	f := fixtureFor(t, corpusA)
	msgs := f.ds.Messages[:3000]
	for _, sh := range []shape{serial, sharded(2)} {
		t.Run(sh.String(), func(t *testing.T) {
			opts := f.options(t, sh, provHorizon)
			d, err := NewDigester(f.kb)
			if err != nil {
				t.Fatal(err)
			}
			st := NewStreamerWith(d, opts)
			defer st.Close()
			for _, m := range msgs {
				if _, err := st.Push(m); err != nil {
					t.Fatal(err)
				}
			}
			eng, err := st.engine()
			if err != nil {
				t.Fatal(err)
			}
			want := eng.(engineBook).Stats()
			if want.OpenGroups == 0 || want.Streams == 0 || want.RulePairs == 0 {
				t.Fatalf("nothing open or tallied (%+v): the check would be vacuous", want)
			}
			state, _, _, err := eng.State()
			if err != nil {
				t.Fatal(err)
			}
			mem, err := d.newStreamEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer mem.Close()
			if err := mem.Restore(state); err != nil {
				t.Fatal(err)
			}
			if got := mem.(engineBook).Stats(); got != want {
				t.Fatalf("restored in memory: Stats()\n got %+v\nwant %+v", got, want)
			}
			snap, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			viaJSON, err := RestoreStreamer(d, snap, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer viaJSON.Close()
			eng, err = viaJSON.engine()
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.(engineBook).Stats(); got != want {
				t.Fatalf("restored through the snapshot: Stats()\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestProvisionalScratchPoisoned proves the scratch contract of
// Merger.TakeUpdates and of the closed-group slice: once a step's
// publications have been turned into events, nothing reads their Members
// again. It composes the serial engine's step by hand — RouterLocal.Step,
// Merger.Apply, TakeUpdates, one BuildGroup per record, Recycle — and,
// before the next step, overwrites every Members buffer it was handed, to
// its full capacity, with garbage. The buffers go back into circulation
// poisoned; if the Merger re-read one, handed one out twice within a step,
// or an event kept a reference into one, the transcript would diverge from
// the serial streamer's, which it must equal record for record
// (TestDifferential's A/sharded2/prov row holds the sharded engine to the
// same records).
func TestProvisionalScratchPoisoned(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.engineConfig(0, provHorizon)
	sh, err := grouping.NewShardable(kb.Dictionary(), kb.RuleBase, cfg.Grouping)
	if err != nil {
		t.Fatal(err)
	}
	local, mg := sh.NewLocal(0), sh.NewMerger()
	var js grouping.Joins
	builder := event.NewBuilder(cfg.Freq, cfg.Labeler)
	poison := grouping.Message{
		Seq: -1, Time: time.Unix(1<<40, 0), Router: "POISON", Template: -99,
		Loc: locdict.RouterLoc("POISON"), AllLocs: []locdict.Location{{}}, Peers: []string{"POISON"}, Raw: ^uint64(0),
	}
	scribble := func(ms []grouping.Message) {
		ms = ms[:cap(ms)]
		for i := range ms {
			ms[i] = poison
		}
	}
	var got []event.Update
	nextID, poisoned := 0, 0
	step := func(closed []grouping.ClosedGroup) {
		gus := mg.TakeUpdates()
		for i := range gus {
			gu := &gus[i]
			u := event.Update{EventID: gu.ID, Revision: gu.Revision}
			switch gu.Kind {
			case grouping.UpdateSuperseded:
				u.Status, u.SupersededBy = event.StatusSuperseded, gu.SupersededBy
			case grouping.UpdateRevised:
				u.Status = event.StatusRevised
			default:
				u.Status = event.StatusProvisional
			}
			if gu.Kind != grouping.UpdateSuperseded {
				u.Event = builder.BuildGroup(gu.Members)
				u.Event.ID = -1
			}
			got = append(got, u)
		}
		for i := range closed {
			ev := builder.BuildGroup(closed[i].Members)
			ev.ID = nextID
			nextID++
			got = append(got, event.Update{EventID: closed[i].ID, Revision: closed[i].Revision, Status: event.StatusFinal, Event: ev})
		}
		for i := range gus {
			scribble(gus[i].Members)
			poisoned += cap(gus[i].Members)
		}
		for i := range closed {
			scribble(closed[i].Members)
		}
		mg.Recycle(closed)
	}
	for i := range ds.Messages {
		pm := kb.Augment(&ds.Messages[i])
		p := sh.Pool().Get(streamMsg(&pm, i))
		if err := local.Step(p, &js); err != nil {
			t.Fatal(err)
		}
		closed, err := mg.Apply(p, &js)
		if err != nil {
			t.Fatal(err)
		}
		step(closed)
	}
	closed := mg.Drain()
	local.DrainWindows()
	step(closed)
	if poisoned == 0 {
		t.Fatal("no provisional publication was poisoned: the run never exercised the scratch")
	}

	want := reference(t, plan{corpus: corpusA, horizon: provHorizon}).upds
	if len(got) != len(want) {
		t.Fatalf("poisoned composition produced %d records, engine %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d differs\npoisoned composition: %+v\nengine: %+v", i, got[i], want[i])
		}
	}
}

// TestShardedLowWatermarkMonotone is the merge stage's progress property:
// under heavy shard skew (one router carries almost all traffic, so one
// shard works while others idle), the merge stage's watermark — the Merger's
// record, published as stream.watermark_unix_seconds — must be
// nondecreasing, never ahead of the dispatcher's record, and must reach it
// at drain.
func TestShardedLowWatermarkMonotone(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stream.NewSharded(kb.Dictionary(), kb.RuleBase, d.engineConfig(0, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.SetBatchSize(16)
	merged := obs.NewRegistry().Gauge("stream.watermark_unix_seconds")
	eng.SetShardedMetrics(stream.ShardedMetrics{Metrics: stream.Metrics{Watermark: merged}})
	dispatched := func() float64 { return float64(eng.Progress().Time().UnixNano()) / 1e9 }

	t0 := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(5))
	var msgs []syslogmsg.Message
	for i := 0; i < 4096; i++ {
		router := "hub-router"
		if rng.Intn(10) == 0 {
			router = fmt.Sprintf("spoke-%d", rng.Intn(8))
		}
		msgs = append(msgs, syslogmsg.Message{Index: uint64(i), Time: t0.Add(time.Duration(i) * 250 * time.Millisecond),
			Router: router, Code: "SKEW-1-TEST", Detail: "skewed feed"})
	}
	plus := kb.AugmentAll(msgs)

	var low float64
	for i := range plus {
		if _, err := eng.Observe(streamMsg(&plus[i], i)); err != nil {
			t.Fatal(err)
		}
		lw := merged.Value()
		if lw < low {
			t.Fatalf("merge watermark regressed: %v after %v", lw, low)
		}
		low = lw
		if lw > dispatched() {
			t.Fatalf("merge watermark %v ahead of dispatcher watermark %v", lw, dispatched())
		}
	}
	if low == 0 {
		t.Fatal("merge watermark never advanced")
	}
	eng.Drain()
	if lw := merged.Value(); lw != dispatched() {
		t.Fatalf("after drain merge watermark %v != watermark %v", lw, dispatched())
	}
}

// TestEngineEvictionBounded is the state bound: a storm corpus cycling
// through many (template, location) streams — 16 routers, each active in
// exactly one era, eras separated by more than the closure horizon — run
// with MaxStreams 4 must (1) evict temporal models, (2) keep the open-state
// and stream gauges bounded far below corpus size, and (3) still produce
// the batch oracle's event multiset, because a stream that never revives
// loses nothing to eviction.
func TestEngineEvictionBounded(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}

	const (
		routers    = 16
		perEra     = 400
		eraSpacing = 4 * time.Hour // > closure horizon (Smax = 3h)
	)
	t0 := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	var msgs []syslogmsg.Message
	for r := 0; r < routers; r++ {
		era := t0.Add(time.Duration(r) * eraSpacing)
		for i := 0; i < perEra; i++ {
			msgs = append(msgs, syslogmsg.Message{Index: uint64(len(msgs)), Time: era.Add(time.Duration(i) * time.Second),
				Router: fmt.Sprintf("storm-%02d", r), Code: "STORM-1-FLOOD", Detail: "interface flap storm"})
		}
	}
	want, err := d.ReferenceDigestPlus(kb.AugmentAll(msgs))
	if err != nil {
		t.Fatal(err)
	}

	st := NewStreamerWith(d, StreamerOptions{MaxStreams: 4})
	reg := obs.NewRegistry()
	st.Instrument(reg)
	var streamed []event.Event
	peakStreams, peakOpen := 0.0, 0.0
	for _, m := range msgs {
		res, err := st.Push(m)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			streamed = append(streamed, res.Events...)
		}
		snap := reg.Snapshot()
		if g := snap.Gauge("stream.state.streams"); g > peakStreams {
			peakStreams = g
		}
		if g := snap.Gauge("stream.state.messages"); g > peakOpen {
			peakOpen = g
		}
	}
	res, err := st.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		streamed = append(streamed, res.Events...)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("stream.state.evictions"); got == 0 {
		t.Error("no stream evictions despite MaxStreams 4 and 16 streams")
	}
	if peakStreams > 5 {
		t.Errorf("peak stream.state.streams = %v, want <= 5 (cap 4 + in-flight)", peakStreams)
	}
	// Open state must track the window, not the corpus: one era can be
	// fully open (eras outlast the horizon), but never several.
	if max := float64(3 * perEra); peakOpen > max {
		t.Errorf("peak stream.state.messages = %v, want <= %v (corpus %d)", peakOpen, max, len(msgs))
	}
	if got := snap.Gauge("stream.state.messages"); got != 0 {
		t.Errorf("open messages after flush = %v, want 0", got)
	}
	if sn, wn := normalizeEvents(streamed), normalizeEvents(want.Events); !reflect.DeepEqual(sn, wn) {
		t.Fatalf("streamed event multiset differs from the oracle's (%d vs %d events)", len(sn), len(wn))
	}
}
