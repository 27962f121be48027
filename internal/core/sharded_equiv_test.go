package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"syslogdigest/internal/event"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
)

// feedOrder returns the indexes of plus in engine feed order: ascending
// time, ties by batch position (the order DigestPlus uses).
func feedOrder(plus []PlusMessage) []int {
	order := make([]int, len(plus))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := &plus[order[a]], &plus[order[b]]
		if !pa.Time.Equal(pb.Time) {
			return pa.Time.Before(pb.Time)
		}
		return order[a] < order[b]
	})
	return order
}

// runEngine feeds the corpus through eng in feed order and returns the
// full emitted event sequence (Observe emissions then Drain), exactly as
// emitted: IDs, order, everything.
func runEngine(t *testing.T, eng streamEngine, plus []PlusMessage, order []int) []event.Event {
	t.Helper()
	var events []event.Event
	for _, i := range order {
		evs, err := eng.Observe(streamMsg(&plus[i], i))
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
	}
	return append(events, eng.Drain()...)
}

// TestShardedMatchesSerial is the PR 5 differential test and the make
// check equivalence smoke: on both vendor corpora at workers ∈ {1, 2, 8},
// and on the flap-storm corpus (near-full rule and cross windows) at 4, the
// sharded engine must emit the byte-identical event sequence — set, scores,
// labels, IDs, and emission order — as the serial engine, both at the
// engine surface and through DigestPlus.
func TestShardedMatchesSerial(t *testing.T) {
	vendor := func(kind gen.DatasetKind) func(*testing.T) (*KnowledgeBase, *gen.Dataset) {
		return func(t *testing.T) (*KnowledgeBase, *gen.Dataset) { return learnSmall(t, kind) }
	}
	for _, tc := range []struct {
		name    string
		corpus  func(*testing.T) (*KnowledgeBase, *gen.Dataset)
		workers []int
	}{
		{fmt.Sprintf("kind%d", gen.DatasetA), vendor(gen.DatasetA), []int{1, 2, 8}},
		{fmt.Sprintf("kind%d", gen.DatasetB), vendor(gen.DatasetB), []int{1, 2, 8}},
		{"storm", learnStorm, []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kb, ds := tc.corpus(t)
			d, err := NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
			plus := kb.AugmentAll(ds.Messages)
			order := feedOrder(plus)

			serial, err := stream.New(kb.Dictionary(), kb.RuleBase, d.engineConfig(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			want := runEngine(t, serial, plus, order)
			if len(want) == 0 {
				t.Fatal("serial engine emitted no events; corpus too small to test")
			}
			wantDigest, err := d.DigestPlus(plus)
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range tc.workers {
				t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
					eng, err := stream.NewSharded(kb.Dictionary(), kb.RuleBase, d.engineConfig(0, 0), workers)
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					got := runEngine(t, eng, plus, order)
					if len(got) != len(want) {
						t.Fatalf("sharded emitted %d events, serial %d", len(got), len(want))
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("event %d differs:\nsharded: %+v\nserial:  %+v", i, got[i], want[i])
						}
					}

					// End-to-end through DigestPlus (rank + ID reassignment on
					// top of the engine) must be exact too.
					d.SetStreamWorkers(workers)
					gotDigest, err := d.DigestPlus(plus)
					d.SetStreamWorkers(0)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotDigest.Events, wantDigest.Events) {
						t.Fatalf("DigestPlus events differ at %d workers", workers)
					}
					if !reflect.DeepEqual(gotDigest.ActiveRules, wantDigest.ActiveRules) {
						t.Fatalf("DigestPlus active rules differ at %d workers", workers)
					}
				})
			}
		})
	}
}

// TestShardedStreamerMatchesSerial runs the full Streamer front-end (reorder
// buffer + engine) in sharded mode against the serial streamer: identical
// push sequence, identical emitted event sequence (order and IDs included,
// since the sharded merge stage assigns IDs in the same closure order).
func TestShardedStreamerMatchesSerial(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []event.Event {
		st := NewStreamerWith(d, StreamerOptions{StreamWorkers: workers})
		defer st.Close()
		var events []event.Event
		for _, m := range ds.Messages {
			res, err := st.Push(m)
			if err != nil {
				t.Fatal(err)
			}
			if res != nil {
				events = append(events, res.Events...)
			}
		}
		res, err := st.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			events = append(events, res.Events...)
		}
		if st.Pending() != 0 {
			t.Fatalf("pending after flush = %d", st.Pending())
		}
		return events
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d emitted %d events, serial %d", workers, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d event %d differs:\nsharded: %+v\nserial:  %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestShardedRandomizedSchedule is the -race stress test: a fixed-seed
// random schedule of batch sizes, mid-stream state queries (which force
// early dispatch and synchronize with the merge stage), and drains, at a
// worker count that oversubscribes the host. Output must still match the
// serial engine exactly.
func TestShardedRandomizedSchedule(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetB)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	plus := kb.AugmentAll(ds.Messages)
	order := feedOrder(plus)

	serial, err := stream.New(kb.Dictionary(), kb.RuleBase, d.engineConfig(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := runEngine(t, serial, plus, order)

	rng := rand.New(rand.NewSource(17))
	eng, err := stream.NewSharded(kb.Dictionary(), kb.RuleBase, d.engineConfig(0, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.SetBatchSize(1 + rng.Intn(64))

	var got []event.Event
	for n, i := range order {
		evs, err := eng.Observe(streamMsg(&plus[i], i))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, evs...)
		if rng.Intn(97) == 0 {
			// State queries synchronize the pipeline mid-stream; they must
			// never perturb output.
			if st := eng.Stats(); st.OpenMessages < 0 {
				t.Fatal("negative open messages")
			}
			if p := eng.Pending(); p < 0 {
				t.Fatal("negative pending")
			}
			_ = n
		}
	}
	got = append(got, eng.Drain()...)

	if len(got) != len(want) {
		t.Fatalf("randomized schedule emitted %d events, serial %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d differs under randomized schedule", i)
		}
	}
}

// TestShardedLowWatermarkMonotone is the low-watermark property test: under
// heavy shard skew (one router carries almost all traffic, so one shard
// works while others idle), the merge stage's low watermark must be
// nondecreasing, never ahead of the dispatcher watermark, and must reach
// it at drain.
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

	t0 := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(5))
	var msgs []syslogmsg.Message
	for i := 0; i < 4096; i++ {
		router := "hub-router"
		if rng.Intn(10) == 0 {
			router = fmt.Sprintf("spoke-%d", rng.Intn(8))
		}
		msgs = append(msgs, syslogmsg.Message{
			Index:  uint64(i),
			Time:   t0.Add(time.Duration(i) * 250 * time.Millisecond),
			Router: router,
			Code:   "SKEW-1-TEST",
			Detail: "skewed feed",
		})
	}
	plus := kb.AugmentAll(msgs)

	var low time.Time
	for i := range plus {
		if _, err := eng.Observe(streamMsg(&plus[i], i)); err != nil {
			t.Fatal(err)
		}
		lw := eng.LowWatermark()
		if lw.Before(low) {
			t.Fatalf("low watermark regressed: %v after %v", lw, low)
		}
		low = lw
		if lw.After(eng.Watermark()) {
			t.Fatalf("low watermark %v ahead of dispatcher watermark %v", lw, eng.Watermark())
		}
	}
	if low.IsZero() {
		t.Fatal("low watermark never advanced")
	}
	eng.Drain()
	if lw := eng.LowWatermark(); !lw.Equal(eng.Watermark()) {
		t.Fatalf("after drain low watermark %v != watermark %v", lw, eng.Watermark())
	}
}
