package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"syslogdigest/internal/event"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/syslogmsg"
)

// provHorizon is the two-tier horizon used throughout these tests: seconds
// of log time, against the ~3h closure horizon.
const provHorizon = 30 * time.Second

// runProvisional streams every message through one streamer with the
// provisional tier on and returns the final-event transcript (same format
// as appendEvents) plus every tier-tagged update in delivery order.
func runProvisional(t *testing.T, kb *KnowledgeBase, msgs []syslogmsg.Message, opts StreamerOptions) (*bytes.Buffer, []event.Update) {
	t.Helper()
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStreamerWith(d, opts)
	defer st.Close()
	var buf bytes.Buffer
	var upds []event.Update
	collect := func(res *DigestResult) {
		appendEvents(t, &buf, res)
		if res != nil {
			upds = append(upds, res.Updates...)
		}
	}
	for _, m := range msgs {
		res, err := st.Push(m)
		if err != nil {
			t.Fatal(err)
		}
		collect(res)
	}
	res, err := st.Flush()
	if err != nil {
		t.Fatal(err)
	}
	collect(res)
	return &buf, upds
}

// checkUpdateInvariants verifies the identity/revision contract over one
// complete update transcript (a drained run: every identity resolved):
//
//   - (EventID, Revision) pairs are unique, and each identity's revisions
//     count 0,1,2,... in delivery order — no gap, no reorder;
//   - every identity begins with a provisional record and ends with exactly
//     one terminal record (final or superseded), with nothing after it;
//   - supersede pointers form acyclic chains that terminate at a finalized
//     identity, and never point at an unknown one;
//   - every final record wraps an event byte-identical to the final stream
//     at the same position.
func checkUpdateInvariants(t *testing.T, upds []event.Update, finals *bytes.Buffer) {
	t.Helper()
	type idState struct {
		nextRev  int
		terminal event.Status
		done     bool
	}
	states := map[uint64]*idState{}
	superBy := map[uint64]uint64{}
	var finalEvents []event.Event
	for i := range upds {
		u := &upds[i]
		st := states[u.EventID]
		if st == nil {
			if u.Status != event.StatusProvisional {
				t.Fatalf("update %d: identity %d opened with %v, want provisional", i, u.EventID, u.Status)
			}
			st = &idState{}
			states[u.EventID] = st
		}
		if st.done {
			t.Fatalf("update %d: identity %d got %v after terminal %v", i, u.EventID, u.Status, st.terminal)
		}
		if u.Revision != st.nextRev {
			t.Fatalf("update %d: identity %d revision %d, want %d", i, u.EventID, u.Revision, st.nextRev)
		}
		st.nextRev++
		switch u.Status {
		case event.StatusSuperseded:
			st.done, st.terminal = true, u.Status
			superBy[u.EventID] = u.SupersededBy
		case event.StatusFinal:
			st.done, st.terminal = true, u.Status
			finalEvents = append(finalEvents, u.Event)
		}
	}
	for id, st := range states {
		if !st.done {
			t.Fatalf("identity %d never resolved (last revision %d)", id, st.nextRev-1)
		}
	}
	// Chains: follow each supersede pointer to its end; it must land on a
	// finalized identity in at most len(superBy) hops (acyclic).
	for id := range superBy {
		cur, hops := id, 0
		for {
			next, ok := superBy[cur]
			if !ok {
				break
			}
			if hops++; hops > len(superBy) {
				t.Fatalf("supersede chain from %d cycles", id)
			}
			cur = next
		}
		st := states[cur]
		if st == nil {
			t.Fatalf("supersede chain from %d ends at unknown identity %d", id, cur)
		}
		if st.terminal != event.StatusFinal {
			t.Fatalf("supersede chain from %d ends at %d with terminal %v, want final", id, cur, st.terminal)
		}
	}
	// The final-tier records must be the final stream, byte for byte.
	var fromUpdates bytes.Buffer
	for i := range finalEvents {
		b, err := json.Marshal(&finalEvents[i])
		if err != nil {
			t.Fatal(err)
		}
		fromUpdates.Write(b)
		fromUpdates.WriteByte('\n')
	}
	if !bytes.Equal(fromUpdates.Bytes(), finals.Bytes()) {
		t.Fatalf("final-tier updates diverge from the final stream: %d vs %d bytes",
			fromUpdates.Len(), finals.Len())
	}
}

// TestProvisionalFinalEquivalence is the tentpole differential gate: with
// the provisional tier on, at workers 1, 2, and 8 on both corpora, the
// final event stream (IDs, scores, labels, order) is byte-identical to the
// provisional-off run's — the tier is additive — and the update transcript
// satisfies the identity/revision contract, including that its final-tier
// records reproduce the final stream exactly.
func TestProvisionalFinalEquivalence(t *testing.T) {
	for _, kind := range []gen.DatasetKind{gen.DatasetA, gen.DatasetB} {
		kb, ds := learnSmall(t, kind)
		kb.SetMatchCache(0)
		want := runUninterrupted(t, kb, ds.Messages, StreamerOptions{StreamWorkers: 1})
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("kind%d/workers%d", kind, workers), func(t *testing.T) {
				got, upds := runProvisional(t, kb, ds.Messages, StreamerOptions{
					StreamWorkers:      workers,
					ProvisionalHorizon: provHorizon,
				})
				if !bytes.Equal(want.Bytes(), got.Bytes()) {
					t.Fatalf("final stream diverged with provisional on: want %d bytes, got %d",
						want.Len(), got.Len())
				}
				if len(upds) == 0 {
					t.Fatal("provisional tier on but no updates delivered")
				}
				checkUpdateInvariants(t, upds, got)
			})
		}
	}
}

// TestProvisionalScratchPoisoned proves the scratch contract of
// Merger.TakeUpdates and of the closed-group slice: once a step's
// publications have been turned into events, nothing reads their Members
// again. It composes the serial engine's step by hand — Incremental.Observe,
// TakeUpdates, one BuildMessages per record, Recycle — and, before the next
// step, overwrites every Members buffer it was handed, to its full
// capacity, with garbage. The buffers go back into circulation poisoned; if
// the Merger re-read one, handed one out twice within a step, or an event
// kept a reference into one, the transcript would diverge from the real
// engines', serial and sharded, which it must equal record for record.
func TestProvisionalScratchPoisoned(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	kb.SetMatchCache(0)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.engineConfig(0, provHorizon)
	inc, err := grouping.NewIncremental(kb.Dictionary(), kb.RuleBase, cfg.Grouping)
	if err != nil {
		t.Fatal(err)
	}
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
		gus := inc.TakeUpdates()
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
				u.Event = builder.BuildMessages(gu.Members)
				u.Event.ID = -1
			}
			got = append(got, u)
		}
		for i := range closed {
			ev := builder.BuildMessages(closed[i].Members)
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
		inc.Recycle(closed)
	}
	for i := range ds.Messages {
		pm := kb.Augment(&ds.Messages[i])
		closed, err := inc.Observe(grouping.Message{
			Seq: i, Time: pm.Time, Router: pm.Router, Template: pm.Template,
			Loc: pm.Loc, AllLocs: pm.AllLocs, Peers: pm.Peers, Raw: pm.Index,
		})
		if err != nil {
			t.Fatal(err)
		}
		step(closed)
	}
	step(inc.Drain())
	if poisoned == 0 {
		t.Fatal("no provisional publication was poisoned: the run never exercised the scratch")
	}

	for _, workers := range []int{1, 2} {
		_, want := runProvisional(t, kb, ds.Messages, StreamerOptions{
			StreamWorkers: workers, ProvisionalHorizon: provHorizon,
		})
		if len(got) != len(want) {
			t.Fatalf("workers=%d: poisoned composition produced %d records, engine %d", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: record %d differs\npoisoned composition: %+v\nengine: %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestProvisionalDisabledNoUpdates pins the off switch: without a horizon
// no result carries updates, so final-only consumers never see the tier.
func TestProvisionalDisabledNoUpdates(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	_, upds := runProvisional(t, kb, ds.Messages, StreamerOptions{StreamWorkers: 2})
	if len(upds) != 0 {
		t.Fatalf("provisional tier off but %d updates delivered", len(upds))
	}
}

// appendUpdates marshals each update to JSON and appends the lines,
// mirroring appendEvents for the update transcript.
func appendUpdates(t *testing.T, buf *bytes.Buffer, upds []event.Update) {
	t.Helper()
	for i := range upds {
		b, err := json.Marshal(&upds[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
}

// TestProvisionalCheckpointExactlyOnce kills a provisional-mode run at 20
// random points (Snapshot, Close, fresh Digester, RestoreStreamer) and
// requires the stitched update transcript to be byte-identical to the
// uninterrupted run's: every (EventID, Revision) delivered exactly once,
// none re-issued, none skipped — on top of the final stream equivalence the
// plain checkpoint suite already gates.
func TestProvisionalCheckpointExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			kb, ds := learnSmall(t, gen.DatasetA)
			kb.SetMatchCache(0)
			msgs := ds.Messages
			opts := StreamerOptions{StreamWorkers: workers, ProvisionalHorizon: provHorizon}

			wantFinals, wantUpds := runProvisional(t, kb, msgs, opts)
			var want bytes.Buffer
			appendUpdates(t, &want, wantUpds)

			cuts := killPoints(907+int64(workers), 20, len(msgs))
			d, err := NewDigester(kb)
			if err != nil {
				t.Fatal(err)
			}
			st := NewStreamerWith(d, opts)
			var gotFinals, got bytes.Buffer
			collect := func(res *DigestResult) {
				appendEvents(t, &gotFinals, res)
				if res != nil {
					appendUpdates(t, &got, res.Updates)
				}
			}
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
				}
				res, err := st.Push(m)
				if err != nil {
					t.Fatal(err)
				}
				collect(res)
			}
			res, err := st.Flush()
			if err != nil {
				t.Fatal(err)
			}
			collect(res)
			st.Close()

			if !bytes.Equal(wantFinals.Bytes(), gotFinals.Bytes()) {
				t.Fatalf("killed run's final stream diverged: want %d bytes, got %d",
					wantFinals.Len(), gotFinals.Len())
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("killed run's update transcript diverged: want %d bytes, got %d",
					want.Len(), got.Len())
			}
		})
	}
}

// TestProvisionalSupersedeStorm runs the flap-storm corpus — merge-heavy
// by construction, the regime that builds the longest supersede chains —
// serial and sharded, and requires the full identity/revision contract to
// hold: chains acyclic and terminating, revisions exact, the final tier
// byte-identical to the final stream.
func TestProvisionalSupersedeStorm(t *testing.T) {
	kb, storm := learnStorm(t)
	kb.SetMatchCache(0)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			finals, upds := runProvisional(t, kb, storm.Messages, StreamerOptions{
				StreamWorkers:      workers,
				ProvisionalHorizon: provHorizon,
			})
			superseded := 0
			for i := range upds {
				if upds[i].Status == event.StatusSuperseded {
					superseded++
				}
			}
			if superseded == 0 {
				t.Fatal("storm corpus produced no supersede records; the regime is untested")
			}
			checkUpdateInvariants(t, upds, finals)
		})
	}
}
