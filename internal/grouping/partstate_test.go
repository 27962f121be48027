package grouping

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/locdict"
)

// shardedFixture runs a split over `workers` locals on a randomized sorted
// batch and returns the fed halves plus the remaining tail.
func shardedFixture(t *testing.T, seed int64, n, cut, workers int) (*Shardable, []*RouterLocal, *Merger, []Message) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	batch := randomBatch(rng, n)
	sort.SliceStable(batch, func(i, j int) bool {
		if !batch[i].Time.Equal(batch[j].Time) {
			return batch[i].Time.Before(batch[j].Time)
		}
		return batch[i].Seq < batch[j].Seq
	})
	s, err := NewShardable(toyDict(t), flapRuleBase(), ckptCfg())
	if err != nil {
		t.Fatal(err)
	}
	locals := make([]*RouterLocal, workers)
	for i := range locals {
		locals[i] = s.NewLocal(0)
	}
	mg := s.NewMerger()
	var js Joins
	for i := 0; i < cut; i++ {
		p := NewPending(batch[i])
		if err := locals[partShardFor(p.msg.Router, workers)].Step(p, &js); err != nil {
			t.Fatal(err)
		}
		if _, err := mg.Apply(p, &js); err != nil {
			t.Fatal(err)
		}
	}
	return s, locals, mg, batch[cut:]
}

func partShardFor(r string, workers int) int {
	h := 0
	for i := 0; i < len(r); i++ {
		h = h*31 + int(r[i])
	}
	return ((h % workers) + workers) % workers
}

// TestLocalPartRoundTrip pins the single-shard snapshot: capture → JSON →
// restore → capture is byte-stable, and the restored local produces the
// same join decisions as the uninterrupted one on the remaining tail.
func TestLocalPartRoundTrip(t *testing.T) {
	s, locals, _, tail := shardedFixture(t, 41, 90, 45, 3)
	for li, rl := range locals {
		st := CaptureLocal(rl)
		raw1, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back LocalPartState
		if err := json.Unmarshal(raw1, &back); err != nil {
			t.Fatal(err)
		}
		restored, err := s.RestoreLocal(back, 0)
		if err != nil {
			t.Fatalf("shard %d: restore: %v", li, err)
		}
		raw2, err := json.Marshal(CaptureLocal(restored))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw1, raw2) {
			t.Fatalf("shard %d: part not byte-stable across restore:\n%s\nvs\n%s", li, raw1, raw2)
		}

		// Continuation: identical decisions (by predecessor Seq) on the tail.
		var jsA, jsB Joins
		for _, m := range tail {
			if partShardFor(m.Router, len(locals)) != li {
				continue
			}
			pa, pb := NewPending(m), NewPending(m)
			if err := rl.Step(pa, &jsA); err != nil {
				t.Fatal(err)
			}
			if err := restored.Step(pb, &jsB); err != nil {
				t.Fatal(err)
			}
			if !sameJoinSeqs(&jsA, &jsB) {
				t.Fatalf("shard %d seq %d: decisions diverge after restore", li, m.Seq)
			}
		}
	}
}

func sameJoinSeqs(a, b *Joins) bool {
	if (a.Temporal == nil) != (b.Temporal == nil) {
		return false
	}
	if a.Temporal != nil && a.Temporal.msg.Seq != b.Temporal.msg.Seq {
		return false
	}
	if len(a.Rules) != len(b.Rules) {
		return false
	}
	for i := range a.Rules {
		if a.Rules[i].msg.Seq != b.Rules[i].msg.Seq {
			return false
		}
	}
	return true
}

// captureParts is the production capture of an engine's halves: each local
// as a self-contained part, stitched with the merger.
func captureParts(tb testing.TB, locals []*RouterLocal, mg *Merger) IncState {
	tb.Helper()
	parts := make([]LocalPartState, len(locals))
	for i, rl := range locals {
		parts[i] = CaptureLocal(rl)
	}
	st, err := CaptureParts(mg, parts)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// referenceCapture is the checkpoint traversal written out in one pass over
// the in-process halves — one pending indexer shared by the merger and every
// local — which the stitch must reproduce byte for byte.
func referenceCapture(locals []*RouterLocal, mg *Merger) IncState {
	x := &pendingIndexer{idx: make(map[*Pending]int)}
	st := IncState{Pendings: []PendingState{}}
	st.Merger = captureMerger(x, mg)
	st.Locals = make([]LocalState, len(locals))
	for li, rl := range locals {
		st.Locals[li] = captureLocal(x, rl)
	}
	st.Pendings = x.pool
	return st
}

// TestCaptureRemotePartsMatchesCaptureParts is the stitching guarantee every
// engine's checkpoint rests on: merging per-local parts with the merger must
// reproduce the one-pass traversal byte for byte — for three shards, and for
// the one local the serial engine writes.
func TestCaptureRemotePartsMatchesCaptureParts(t *testing.T) {
	for _, workers := range []int{3, 1} {
		_, locals, mg, _ := shardedFixture(t, 97, 110, 80, workers)
		want, err := json.Marshal(referenceCapture(locals, mg))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(captureParts(t, locals, mg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d locals: stitched capture diverges from the one-pass traversal:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestCaptureRemotePartsRejectsCorruptIndexes: a part referencing outside
// its own pending table must error, not panic.
func TestCaptureRemotePartsRejectsCorruptIndexes(t *testing.T) {
	_, locals, mg, _ := shardedFixture(t, 13, 60, 40, 3)
	parts := make([]LocalPartState, len(locals))
	for i, rl := range locals {
		parts[i] = CaptureLocal(rl)
	}
	found := false
	for i := range parts {
		if len(parts[i].Local.Models) > 0 {
			parts[i].Local.Models[0].Last = len(parts[i].Pendings) + 5
			found = true
			break
		}
	}
	if !found {
		t.Skip("no models in fixture")
	}
	if _, err := CaptureParts(mg, parts); err == nil {
		t.Error("out-of-range part index accepted")
	}
}

// FuzzRestoreLocal feeds what a shard does with a Restore frame damaged
// part-state: the bytes decode as a LocalPartState, restore through the
// one-local RestoreParts the shard server calls, step a probe, capture and
// drain. It must never panic, and a part the restore refuses is refused
// with checkpoint.ErrCorrupt. The seeds start from a real CaptureLocal over
// the mixed corpus (full windows, overflow IDs, unmatched templates).
func FuzzRestoreLocal(f *testing.F) {
	// Small on purpose: the fuzzer minimizes every new input it keeps, and
	// minimizing takes passes over every byte.
	batch := sortBatch(mixedBatch(rand.New(rand.NewSource(37)), 40))
	cfg := ckptCfg()
	cfg.MaxScan = 8
	s, err := NewShardable(toyDict(f), mixedRules(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	rl := s.NewLocal(0)
	var js Joins
	for i := range batch {
		batch[i].Router = batch[i].Loc.Router
		if err := rl.Step(NewPending(batch[i]), &js); err != nil {
			f.Fatal(err)
		}
	}
	seed, err := json.Marshal(CaptureLocal(rl))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-1])
	// Flip the low bit of a few digits: the JSON stays well-formed and the
	// damage lands in indexes, times, template IDs and EWMA state.
	flipped := append([]byte(nil), seed...)
	for i := len(flipped) / 5; i < len(flipped); i += len(flipped) / 9 {
		for ; i < len(flipped) && (flipped[i] < '0' || flipped[i] > '9'); i++ {
		}
		if i < len(flipped) {
			flipped[i] ^= 1
		}
	}
	f.Add(flipped)
	f.Add([]byte(`{"pendings":[],"local":{"models":[{"template":1,"loc_key":"r1","router":"r1","last":3}]}}`))

	probe := Message{
		Seq: 1 << 30, Time: batch[len(batch)-1].Time.Add(time.Second),
		Router: "r1", Template: tLinkDown, Loc: locdict.IntfLoc("r1", "Serial1/0.10/10:0"),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var part LocalPartState
		if json.Unmarshal(data, &part) != nil {
			return // the session's frame decoder refuses it first
		}
		// Any template ID up to maxTemplate is valid, and a window holding one
		// sizes its bucket table to it (tens of MB near the bound): fold the
		// large valid IDs down so every exec stays fast. IDs past the bound
		// still reach the restore, which must refuse them.
		fold := func(t *int) {
			if *t > 1<<10 && *t <= maxTemplate {
				*t %= 1 << 10
			}
		}
		for i := range part.Pendings {
			fold(&part.Pendings[i].Template)
		}
		for i := range part.Local.Models {
			fold(&part.Local.Models[i].Template)
		}
		restored, err := s.RestoreLocal(part, 0)
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("refusal %q does not wrap checkpoint.ErrCorrupt", err)
			}
			return
		}
		p := NewPending(probe)
		var pjs Joins
		if err := restored.Step(p, &pjs); err != nil {
			t.Logf("probe step: %v", err)
		}
		p.Release()
		CaptureLocal(restored)
		restored.DrainWindows()
	})
}
