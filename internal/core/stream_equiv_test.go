package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"syslogdigest/internal/event"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/syslogmsg"
)

// normalizeEvents returns a copy sorted by earliest raw member with IDs
// zeroed: the canonical multiset form for comparing event sets that were
// emitted in different orders (closure order vs rank order).
func normalizeEvents(events []event.Event) []event.Event {
	out := append([]event.Event(nil), events...)
	sort.Slice(out, func(a, b int) bool {
		return out[a].RawIndexes[0] < out[b].RawIndexes[0]
	})
	for i := range out {
		out[i].ID = 0
	}
	return out
}

// TestStreamingMatchesBatch is the tentpole differential test: on both
// vendor corpora and at Parallelism 1 and 8, (a) the engine-backed Digest
// reproduces the retired three-pass batch implementation exactly — same
// events, scores, labels, ranks, and IDs — and (b) the Streamer (reorder
// buffer + incremental engine, events emitted at watermark closure) yields
// the same event multiset.
func TestStreamingMatchesBatch(t *testing.T) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		for _, j := range []int{1, 8} {
			t.Run(fmt.Sprintf("kind%d-j%d", kind, j), func(t *testing.T) {
				kb, ds := learnSmall(t, kind)
				d, err := NewDigester(kb)
				if err != nil {
					t.Fatal(err)
				}
				d.SetParallelism(j)

				// (a) Engine-backed Digest vs the batch oracle: exact.
				got, err := d.Digest(ds.Messages)
				if err != nil {
					t.Fatal(err)
				}
				want, err := d.ReferenceDigestPlus(kb.AugmentAll(ds.Messages))
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Events) != len(want.Events) {
					t.Fatalf("engine digest: %d events, oracle %d", len(got.Events), len(want.Events))
				}
				for i := range got.Events {
					if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
						t.Fatalf("event %d differs:\nengine: %+v\noracle: %+v", i, got.Events[i], want.Events[i])
					}
				}
				if len(got.ActiveRules) == 0 {
					t.Fatal("engine digest reported no active rules")
				}

				// (b) Streamer (one message at a time, events at closure)
				// vs the oracle: same multiset.
				st := NewStreamerWith(d, StreamerOptions{})
				var streamed []event.Event
				for _, m := range ds.Messages {
					res, err := st.Push(m)
					if err != nil {
						t.Fatal(err)
					}
					if res != nil {
						streamed = append(streamed, res.Events...)
					}
				}
				res, err := st.Flush()
				if err != nil {
					t.Fatal(err)
				}
				if res != nil {
					streamed = append(streamed, res.Events...)
				}
				if st.Pending() != 0 {
					t.Fatalf("pending after flush = %d", st.Pending())
				}
				sn, wn := normalizeEvents(streamed), normalizeEvents(want.Events)
				if len(sn) != len(wn) {
					t.Fatalf("streamed %d events, oracle %d", len(sn), len(wn))
				}
				for i := range sn {
					if !reflect.DeepEqual(sn[i], wn[i]) {
						t.Fatalf("streamed event %d differs:\nstream: %+v\noracle: %+v", i, sn[i], wn[i])
					}
				}
			})
		}
	}
}

// TestStreamerReorderWithinTolerance feeds a locally-shuffled version of the
// corpus — every message displaced at most one second from its sorted
// position, within the default 2s tolerance — and requires the exact event
// multiset of the in-order batch digest: the reorder buffer must make the
// shuffle invisible, dropping nothing.
func TestStreamerReorderWithinTolerance(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.ReferenceDigestPlus(kb.AugmentAll(ds.Messages))
	if err != nil {
		t.Fatal(err)
	}

	// Swap adjacent pairs whose timestamps differ by at most a second: the
	// arrival order disagrees with time order, but never by more than the
	// 2s tolerance.
	shuffled := append([]syslogmsg.Message(nil), ds.Messages...)
	swaps := 0
	for i := 0; i+1 < len(shuffled); i += 2 {
		if d := shuffled[i+1].Time.Sub(shuffled[i].Time); d > 0 && d <= time.Second {
			shuffled[i], shuffled[i+1] = shuffled[i+1], shuffled[i]
			swaps++
		}
	}
	if swaps == 0 {
		t.Fatal("corpus produced no swappable pairs; shrink the interval")
	}

	st := NewStreamerWith(d, StreamerOptions{})
	reg := obs.NewRegistry()
	st.Instrument(reg)
	var streamed []event.Event
	for _, m := range shuffled {
		res, err := st.Push(m)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			streamed = append(streamed, res.Events...)
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
	if got := snap.Counter("stream.reordered"); got == 0 {
		t.Error("no arrivals counted as reordered despite the shuffle")
	}
	if got := snap.Counter("stream.dropped.late"); got != 0 {
		t.Errorf("dropped.late = %d, want 0 (shuffle stayed within tolerance)", got)
	}

	sn, wn := normalizeEvents(streamed), normalizeEvents(want.Events)
	if len(sn) != len(wn) {
		t.Fatalf("streamed %d events, oracle %d", len(sn), len(wn))
	}
	for i := range sn {
		if !eventEqualIgnoringSeqs(sn[i], wn[i]) {
			t.Fatalf("streamed event %d differs:\nstream: %+v\noracle: %+v", i, sn[i], wn[i])
		}
	}
}

// eventEqualIgnoringSeqs compares two events on everything except
// MessageSeqs: a reordered feed assigns release-order sequence numbers that
// legitimately differ from sorted batch positions, while RawIndexes (the
// durable identity of the member messages) must still agree.
func eventEqualIgnoringSeqs(a, b event.Event) bool {
	a.MessageSeqs, b.MessageSeqs = nil, nil
	a.ID, b.ID = 0, 0
	return reflect.DeepEqual(a, b)
}

// TestEngineEvictionBounded is the state-bound satellite: a storm corpus
// cycling through many (template, location) streams — 16 routers, each
// active in exactly one era, eras separated by more than the closure
// horizon — run with MaxStreams 4 must (1) evict temporal models, (2) keep
// the open-state and stream gauges bounded far below corpus size, and (3)
// still produce the batch oracle's event multiset, because a stream that
// never revives loses nothing to eviction.
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
			msgs = append(msgs, syslogmsg.Message{
				Index:  uint64(len(msgs)),
				Time:   era.Add(time.Duration(i) * time.Second),
				Router: fmt.Sprintf("storm-%02d", r),
				Code:   "STORM-1-FLOOD",
				Detail: "interface flap storm",
			})
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

	sn, wn := normalizeEvents(streamed), normalizeEvents(want.Events)
	if len(sn) != len(wn) {
		t.Fatalf("streamed %d events, oracle %d", len(sn), len(wn))
	}
	for i := range sn {
		if !reflect.DeepEqual(sn[i], wn[i]) {
			t.Fatalf("streamed event %d differs:\nstream: %+v\noracle: %+v", i, sn[i], wn[i])
		}
	}
}
