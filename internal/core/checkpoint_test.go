package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"syslogdigest/internal/event"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
)

// appendEvents marshals each event to JSON and appends the lines to buf,
// preserving emission order. Byte equality of two such transcripts means
// identical events, scores, IDs, and ordering.
func appendEvents(t *testing.T, buf *bytes.Buffer, res *DigestResult) int {
	t.Helper()
	if res == nil {
		return 0
	}
	for i := range res.Events {
		b, err := json.Marshal(&res.Events[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return len(res.Events)
}

// runUninterrupted streams every message through one streamer and returns
// the full emission transcript.
func runUninterrupted(t *testing.T, kb *KnowledgeBase, msgs []syslogmsg.Message, opts StreamerOptions) *bytes.Buffer {
	t.Helper()
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStreamerWith(d, opts)
	defer st.Close()
	var buf bytes.Buffer
	for _, m := range msgs {
		res, err := st.Push(m)
		if err != nil {
			t.Fatal(err)
		}
		appendEvents(t, &buf, res)
	}
	res, err := st.Flush()
	if err != nil {
		t.Fatal(err)
	}
	appendEvents(t, &buf, res)
	return &buf
}

// killPoints picks n distinct, sorted cut positions in (0, total).
func killPoints(seed int64, n, total int) []int {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int]bool{}
	for len(seen) < n {
		p := 1 + rng.Intn(total-1)
		seen[p] = true
	}
	pts := make([]int, 0, n)
	for p := range seen {
		pts = append(pts, p)
	}
	sort.Ints(pts)
	return pts
}

// TestCheckpointRestoreEquivalence is the differential kill/restore gate:
// on both corpora, at 1 and 4 workers, the run is killed at 20+ random
// points — Snapshot, Close, fresh Digester, RestoreStreamer — and the
// stitched-together emission transcript must be byte-identical to the
// uninterrupted run's (same events, scores, IDs, order, each exactly once).
func TestCheckpointRestoreEquivalence(t *testing.T) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("kind%d/workers%d", kind, workers), func(t *testing.T) {
				kb, ds := learnSmall(t, kind)
				kb.SetMatchCache(0)
				msgs := ds.Messages
				opts := StreamerOptions{StreamWorkers: workers}
				want := runUninterrupted(t, kb, msgs, opts)

				cuts := killPoints(61+int64(kind)*17+int64(workers), 20, len(msgs))
				d, err := NewDigester(kb)
				if err != nil {
					t.Fatal(err)
				}
				st := NewStreamerWith(d, opts)
				var got bytes.Buffer
				next := 0
				for i, m := range msgs {
					if next < len(cuts) && i == cuts[next] {
						next++
						snap, err := st.Snapshot()
						if err != nil {
							t.Fatalf("snapshot at %d: %v", i, err)
						}
						st.Close()
						d2, err := NewDigester(kb)
						if err != nil {
							t.Fatal(err)
						}
						st, err = RestoreStreamer(d2, snap, opts)
						if err != nil {
							t.Fatalf("restore at %d: %v", i, err)
						}
						if got, want := st.Pushed(), uint64(i); got != want {
							t.Fatalf("restored Pushed() = %d at cut %d", got, want)
						}
					}
					res, err := st.Push(m)
					if err != nil {
						t.Fatal(err)
					}
					appendEvents(t, &got, res)
				}
				res, err := st.Flush()
				if err != nil {
					t.Fatal(err)
				}
				appendEvents(t, &got, res)
				st.Close()

				if !bytes.Equal(want.Bytes(), got.Bytes()) {
					t.Fatalf("killed run diverged from uninterrupted run\nwant %d bytes, got %d bytes",
						want.Len(), got.Len())
				}
			})
		}
	}
}

// TestCheckpointRestoreAcrossWorkerCounts kills a sharded run and restores
// it serial, sharded at another count, and clustered: the snapshot is
// shape-independent, so the stitched transcript must still match the
// uninterrupted reference — and each restored streamer, before it has been
// pushed anything, must already report the open messages it inherited and
// every tally of the run so far.
func TestCheckpointRestoreAcrossWorkerCounts(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	kb.SetMatchCache(0)
	msgs := ds.Messages
	want := runUninterrupted(t, kb, msgs, StreamerOptions{StreamWorkers: 1})
	srv := startShardServer(t, kb)

	// 4 workers → kill → 1 worker → kill → 3 workers → kill → 2 remote shards.
	plan := []StreamerOptions{
		{StreamWorkers: 4}, {StreamWorkers: 1}, {StreamWorkers: 3}, {ShardAddrs: loopbackAddrs(srv, 2)},
	}
	cuts := killPoints(7, len(plan)-1, len(msgs))
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStreamerWith(d, plan[0])
	var got bytes.Buffer
	next := 0
	for i, m := range msgs {
		if next < len(cuts) && i == cuts[next] {
			next++
			pending := st.Pending()
			stats := st.eng.Stats()
			snap, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
			d2, err := NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
			st, err = RestoreStreamer(d2, snap, plan[next])
			if err != nil {
				t.Fatal(err)
			}
			if pending == 0 {
				t.Fatalf("cut %d at message %d left nothing open; the check below would be vacuous", next, i)
			}
			if got := st.Pending(); got != pending {
				t.Fatalf("restore %d (%+v): Pending() = %d right after restore, %d before the snapshot",
					next, plan[next], got, pending)
			}
			// The whole book crosses a reshard, the cumulative tallies
			// included: what Stats() reports is what the next snapshot
			// persists.
			if stats.RuleCandidates == 0 || stats.RulePairs == 0 {
				t.Fatalf("cut %d at message %d: no rule-pass tallies yet (%+v); the check below would be vacuous", next, i, stats)
			}
			if got := st.eng.Stats(); got != stats {
				t.Fatalf("restore %d (%+v): Stats() right after restore\n got %+v\nwant %+v (before the snapshot)",
					next, plan[next], got, stats)
			}
		}
		res, err := st.Push(m)
		if err != nil {
			t.Fatal(err)
		}
		appendEvents(t, &got, res)
	}
	res, err := st.Flush()
	if err != nil {
		t.Fatal(err)
	}
	appendEvents(t, &got, res)
	st.Close()

	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("resharded run diverged: want %d bytes, got %d", want.Len(), got.Len())
	}
}

// TestCheckpointGoldenRoundTrip: restoring a snapshot and snapshotting the
// restored streamer reproduces the original bytes — the serialization is a
// fixed point, so checkpoint files are stable and diffable across restarts.
func TestCheckpointGoldenRoundTrip(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			kb, ds := learnSmall(t, gen.DatasetA)
			msgs := ds.Messages
			d, err := NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
			opts := StreamerOptions{StreamWorkers: workers}
			st := NewStreamerWith(d, opts)
			defer st.Close()
			marks := map[int]bool{0: true, len(msgs) / 3: true, len(msgs) - 1: true}
			for i, m := range msgs {
				if _, err := st.Push(m); err != nil {
					t.Fatal(err)
				}
				if !marks[i] {
					continue
				}
				snap, err := st.Snapshot()
				if err != nil {
					t.Fatalf("snapshot at %d: %v", i, err)
				}
				d2, err := NewDigester(kb)
				if err != nil {
					t.Fatal(err)
				}
				r, err := RestoreStreamer(d2, snap, opts)
				if err != nil {
					t.Fatalf("restore at %d: %v", i, err)
				}
				snap2, err := r.Snapshot()
				r.Close()
				if err != nil {
					t.Fatalf("re-snapshot at %d: %v", i, err)
				}
				if !bytes.Equal(snap, snap2) {
					t.Fatalf("snapshot at %d is not a fixed point: %d vs %d bytes",
						i, len(snap), len(snap2))
				}
			}
		})
	}
}

// TestCheckpointPoolIndependence proves the Pending pool is runtime
// plumbing only, invisible to checkpoints: a snapshot restores to the same
// bytes (no pool state serializes — the golden fixed point), and a restored
// run's pool books balance on their own. Records materialized by restore
// are GC-owned (owner == nil) and must never enter the new engine's pool,
// while every record the new pool hands out must come back by Flush — so
// after draining, gets == puts exactly: a put surplus means a restored
// record leaked in, a deficit means a pooled record leaked out. Run under
// -race (make checkpoint-equiv) this also exercises the cross-goroutine
// release paths of the sharded engine's refcounts.
func TestCheckpointPoolIndependence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			kb, ds := learnSmall(t, gen.DatasetA)
			kb.SetMatchCache(0)
			msgs := ds.Messages
			opts := StreamerOptions{StreamWorkers: workers}
			d, err := NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
			st := NewStreamerWith(d, opts)
			cut := len(msgs) / 2
			for _, m := range msgs[:cut] {
				if _, err := st.Push(m); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			st.Close()

			d2, err := NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
			st2, err := RestoreStreamer(d2, snap, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			snap2, err := st2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, snap2) {
				t.Fatalf("snapshot → restore → snapshot is not a fixed point: %d vs %d bytes",
					len(snap), len(snap2))
			}

			reg := obs.NewRegistry()
			st2.Instrument(reg)
			for _, m := range msgs[cut:] {
				if _, err := st2.Push(m); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := st2.Flush(); err != nil {
				t.Fatal(err)
			}
			s := reg.Snapshot()
			gets := s.Counter("stream.pool.pending.gets")
			puts := s.Counter("stream.pool.pending.puts")
			if gets == 0 {
				t.Fatal("restored run's pool handed out no records")
			}
			if gets != puts {
				t.Fatalf("pool leak across restore: gets %d != puts %d", gets, puts)
			}
			if live := s.Gauge("stream.pool.pending.live"); live != 0 {
				t.Fatalf("pool live %v after flush, want 0", live)
			}
		})
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

// TestStreamerReorderCapBoundary: the reorder buffer must never hold more
// than ReorderCap messages — the historical off-by-one let it reach cap+1.
// Covers both overflow paths: releasing the oldest buffered message to make
// room, and feeding the new arrival directly when it precedes everything
// buffered.
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
		if len(s.buf) > cap {
			t.Fatalf("after push %d: buffer holds %d > cap %d", i, len(s.buf), cap)
		}
	}
	if len(s.buf) != cap {
		t.Fatalf("buffer holds %d, want exactly %d", len(s.buf), cap)
	}
	released := s.frontier
	// A full buffer plus an arrival older than everything buffered (but not
	// behind the frontier): the arrival itself releases, never occupying a
	// slot, and the buffer must not shrink or grow.
	mid := released.Add(500 * time.Millisecond)
	if mid.After(s.buf[0].m.Time) {
		t.Fatalf("test setup: %v should precede buffered head %v", mid, s.buf[0].m.Time)
	}
	if _, err := s.Push(mk(mid)); err != nil {
		t.Fatal(err)
	}
	if len(s.buf) != cap {
		t.Fatalf("direct-feed path changed buffer to %d, want %d", len(s.buf), cap)
	}
	if !s.frontier.Equal(mid) {
		t.Fatalf("frontier %v, want %v (direct feed released the arrival)", s.frontier, mid)
	}
}

// failEngine is a streamEngine whose Observe fails on the Nth call,
// emitting one synthetic event per successful call.
type failEngine struct {
	calls  int
	failAt int
}

var errBoom = errors.New("engine: boom")

func (f *failEngine) Observe(stream.Message) ([]event.Event, error) {
	f.calls++
	if f.calls >= f.failAt {
		return nil, errBoom
	}
	return []event.Event{{ID: f.calls}}, nil
}
func (f *failEngine) Drain() []event.Event                    { return nil }
func (f *failEngine) Close()                                  {}
func (f *failEngine) Watermark() time.Time                    { return time.Time{} }
func (f *failEngine) Pending() int                            { return 0 }
func (f *failEngine) Stats() grouping.IncStats                { return grouping.IncStats{} }
func (f *failEngine) ActiveRules() map[rules.PairKey]int      { return nil }
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
	if len(s.buf) != 4 {
		t.Fatalf("setup: buffered %d, want 4", len(s.buf))
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
	if len(s.buf) != 1 {
		t.Fatalf("buffer holds %d after failed flush, want 1 (the unfed remainder)", len(s.buf))
	}
	if got := reg.Snapshot().Gauge("stream.buffered"); got != 1 {
		t.Fatalf("stream.buffered gauge = %v, want 1", got)
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
	if !s.frontier.Equal(t0) {
		t.Fatalf("setup: frontier %v, want %v", s.frontier, t0)
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
