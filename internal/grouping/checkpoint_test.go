package grouping

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/temporal"
)

// ckptCfg is the config every engine in these tests shares (matching the
// defaults newSerial injects).
func ckptCfg() IncrementalConfig {
	return IncrementalConfig{Config: Config{Temporal: temporal.DefaultParams()}}
}

// restoreFromState round-trips an IncState through JSON (as the real
// checkpoint path does) and rebuilds the serial composition over the toy
// knowledge.
func restoreFromState(t *testing.T, st IncState) *serial {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	var back IncState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}
	inc, err := restoreSerial(t, ckptCfg(), back)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return inc
}

// TestIncrementalCheckpointDifferential kills and restores the incremental
// grouper at every prefix of a randomized sorted batch: the closed groups
// emitted after the cut, the final drain, and the stats must all match the
// uninterrupted run exactly.
func TestIncrementalCheckpointDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	batch := randomBatch(rng, 80)
	sorted := append([]Message(nil), batch...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if !sorted[i].Time.Equal(sorted[j].Time) {
			return sorted[i].Time.Before(sorted[j].Time)
		}
		return sorted[i].Seq < sorted[j].Seq
	})

	// Uninterrupted reference: closed groups per step plus final stats.
	ref := newSerial(t, Config{})
	refClosed := make([][][]int, len(sorted))
	for i := range sorted {
		cgs, err := ref.Observe(sorted[i])
		if err != nil {
			t.Fatalf("reference observe: %v", err)
		}
		refClosed[i] = closedToGroups(cgs)
	}
	refDrain := closedToGroups(ref.Drain())
	refStats := ref.Stats()

	for cut := 0; cut <= len(sorted); cut += 7 {
		inc := newSerial(t, Config{})
		for i := 0; i < cut; i++ {
			if _, err := inc.Observe(sorted[i]); err != nil {
				t.Fatalf("cut %d observe: %v", cut, err)
			}
		}
		restored := restoreFromState(t, inc.State(t))
		for i := cut; i < len(sorted); i++ {
			cgs, err := restored.Observe(sorted[i])
			if err != nil {
				t.Fatalf("cut %d restored observe %d: %v", cut, i, err)
			}
			if got := closedToGroups(cgs); !reflect.DeepEqual(got, refClosed[i]) {
				t.Fatalf("cut %d step %d: closed groups diverge\ngot  %v\nwant %v", cut, i, got, refClosed[i])
			}
		}
		if got := closedToGroups(restored.Drain()); !reflect.DeepEqual(got, refDrain) {
			t.Fatalf("cut %d: drain diverges\ngot  %v\nwant %v", cut, got, refDrain)
		}
		if got := restored.Stats(); got != refStats {
			t.Fatalf("cut %d: stats diverge\ngot  %+v\nwant %+v", cut, got, refStats)
		}
	}
}

// TestCheckpointMemberOrderUnspecified pins what a checkpoint's group member
// order means: nothing. A provisional publication sorts an open group's
// live member list in place, so a snapshot taken with the tier on lists a
// published group in Seq order and an unpublished one in join order. Each
// cut restores the state as captured and again with every group's members
// shuffled; both must continue — closed groups, provisional updates, drain,
// stats — exactly like the uninterrupted run.
func TestCheckpointMemberOrderUnspecified(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	batch := randomBatch(rng, 400)
	sort.SliceStable(batch, func(i, j int) bool {
		if !batch[i].Time.Equal(batch[j].Time) {
			return batch[i].Time.Before(batch[j].Time)
		}
		return batch[i].Seq < batch[j].Seq
	})
	cfg := ckptCfg()
	cfg.ProvisionalHorizon = 30 * time.Second
	fresh := func() *serial { return newSerialWith(t, toyDict(t), flapRuleBase(), cfg) }
	// record renders what one step hands its caller.
	record := func(inc *serial, closed []ClosedGroup) string {
		var b strings.Builder
		for _, u := range inc.merge.TakeUpdates() {
			fmt.Fprintf(&b, "update %d.%d kind %d by %d last %d %v\n", u.ID, u.Revision, u.Kind,
				u.SupersededBy, u.Last.UnixNano(), closedToGroups([]ClosedGroup{{Members: u.Members}}))
		}
		for _, cg := range closed {
			fmt.Fprintf(&b, "closed %d.%d %v\n", cg.ID, cg.Revision, closedToGroups([]ClosedGroup{cg}))
		}
		return b.String()
	}
	run := func(inc *serial, from int) (steps []string) {
		for i := from; i < len(batch); i++ {
			closed, err := inc.Observe(batch[i])
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, record(inc, closed))
		}
		steps = append(steps, record(inc, inc.Drain()), fmt.Sprintf("%+v", inc.Stats()))
		return steps
	}
	ref := run(fresh(), 0)
	if !strings.Contains(strings.Join(ref, ""), "kind 1") {
		t.Fatal("the fixture revises no group")
	}

	sortedGroups, reordered := 0, 0
	for cut := 40; cut < len(batch); cut += 40 {
		inc := fresh()
		resume := func(st IncState, what string) {
			raw, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var back IncState
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			restored, err := restoreSerial(t, cfg, back)
			if err != nil {
				t.Fatalf("cut %d, %s: restore: %v", cut, what, err)
			}
			if got := run(restored, cut); !reflect.DeepEqual(got, ref[cut:]) {
				t.Fatalf("cut %d, %s: the restored run diverges from the uninterrupted one", cut, what)
			}
		}
		for i := 0; i < cut; i++ {
			if _, err := inc.Observe(batch[i]); err != nil {
				t.Fatal(err)
			}
		}
		st := inc.State(t)
		resume(st, "members as captured")
		for gi := range st.Merger.Groups {
			ms := st.Merger.Groups[gi].Members
			if len(ms) < 3 {
				continue
			}
			if st.Merger.Groups[gi].Pub && sort.SliceIsSorted(ms, func(i, j int) bool {
				return st.Pendings[ms[i]].Seq < st.Pendings[ms[j]].Seq
			}) {
				sortedGroups++
			}
			rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
			reordered++
		}
		resume(st, "members shuffled")
	}
	if sortedGroups == 0 || reordered == sortedGroups {
		t.Fatalf("the cuts should capture published (Seq-ordered) and unpublished groups of 3+ members: %d of %d in Seq order", sortedGroups, reordered)
	}
}

// TestIncrementalStateRoundTripStable pins byte stability:
// capture → restore → capture yields identical JSON.
func TestIncrementalStateRoundTripStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	batch := randomBatch(rng, 60)
	sort.SliceStable(batch, func(i, j int) bool {
		if !batch[i].Time.Equal(batch[j].Time) {
			return batch[i].Time.Before(batch[j].Time)
		}
		return batch[i].Seq < batch[j].Seq
	})
	inc := newSerial(t, Config{})
	for i := range batch {
		if _, err := inc.Observe(batch[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := inc.State(t)
	raw1, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	restored := restoreFromState(t, st)
	raw2, err := json.Marshal(restored.State(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("state not byte-stable across restore:\n%s\nvs\n%s", raw1, raw2)
	}
}

// TestSnapshotBookFormat pins the snapshot form of the two books, each
// embedded in its half's state: the tallies under the keys, in the order and
// with the omitempty the checkpoint format has always had, and the live
// levels (Streams, OpenMessages, OpenGroups) not written at all. The bytes
// decode and encode again unchanged, so every key reaches its field.
func TestSnapshotBookFormat(t *testing.T) {
	local := LocalState{
		LocalStats: LocalStats{Streams: 9, Evictions: 1, RuleCandidates: 2, RulePairs: 3, UnresolvedLocs: 4},
		Models:     []ModelState{},
		Windows:    []WindowState{},
	}
	merger := MergerState{
		Started: true, WatermarkNs: 5,
		Groups: []GroupState{}, CrossWin: []int{}, Active: []ActiveRuleState{},
		MergeStats: MergeStats{
			OpenMessages: 9, OpenGroups: 9,
			TemporalMerges: 6, RuleMerges: 7, CrossMerges: 8, CrossCandidates: 10,
		},
		NextGroupID: 11,
	}
	for _, tc := range []struct {
		v    any
		want string
	}{
		{local, `{"evictions":1,"rule_candidates":2,"rule_pairs":3,"unresolved_locations":4,"models":[],"windows":[]}`},
		{LocalState{}, `{"evictions":0,"models":null,"windows":null}`},
		{merger, `{"started":true,"watermark_ns":5,"groups":[],"cross_win":[],"active":[],` +
			`"temporal_merges":6,"rule_merges":7,"cross_merges":8,"cross_candidates":10,"next_group_id":11}`},
		{MergerState{}, `{"started":false,"watermark_ns":0,"groups":null,"cross_win":null,"active":null,` +
			`"temporal_merges":0,"rule_merges":0,"cross_merges":0}`},
	} {
		raw, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != tc.want {
			t.Fatalf("%T marshals to\n%s\nwant\n%s", tc.v, raw, tc.want)
		}
		back := reflect.New(reflect.TypeOf(tc.v))
		if err := json.Unmarshal(raw, back.Interface()); err != nil {
			t.Fatal(err)
		}
		if again, err := json.Marshal(back.Interface()); err != nil || string(again) != tc.want {
			t.Fatalf("%T decodes and encodes again to %s (%v), want %s", tc.v, again, err, tc.want)
		}
	}
}

// TestRestorePartsResharding snapshots a 3-shard arrangement and restores
// it at 1 worker: the merged engine must continue exactly like a serial
// engine that saw the same prefix (model tables stay within bounds here, so
// the reshard approximation never bites).
func TestRestorePartsResharding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	batch := randomBatch(rng, 70)
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
	const workers = 3
	shardFor := func(r string) int {
		h := 0
		for i := 0; i < len(r); i++ {
			h = h*31 + int(r[i])
		}
		return ((h % workers) + workers) % workers
	}
	locals := make([]*RouterLocal, workers)
	for i := range locals {
		locals[i] = s.NewLocal(0)
	}
	mg := s.NewMerger()

	cut := len(batch) / 2
	var js Joins
	for i := 0; i < cut; i++ {
		p := NewPending(batch[i])
		if err := locals[shardFor(p.msg.Router)].Step(p, &js); err != nil {
			t.Fatal(err)
		}
		if _, err := mg.Apply(p, &js); err != nil {
			t.Fatal(err)
		}
	}
	st := captureParts(t, locals, mg)
	merged, err := restoreSerial(t, ckptCfg(), st)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference over the whole batch.
	ref := newSerial(t, Config{})
	var refOut, gotOut [][]int
	for i := range batch {
		cgs, err := ref.Observe(batch[i])
		if err != nil {
			t.Fatal(err)
		}
		refOut = append(refOut, closedToGroups(cgs)...)
		if i >= cut {
			mcgs, err := merged.Observe(batch[i])
			if err != nil {
				t.Fatalf("merged observe %d: %v", i, err)
			}
			gotOut = append(gotOut, closedToGroups(mcgs)...)
		}
	}
	refOut = append(refOut, closedToGroups(ref.Drain())...)
	gotOut = append(gotOut, closedToGroups(merged.Drain())...)

	// Only groups closing after the cut are observable from the restored
	// engine; the reference's earlier closures are a prefix.
	if len(gotOut) > len(refOut) {
		t.Fatalf("restored engine closed more groups (%d) than reference (%d)", len(gotOut), len(refOut))
	}
	tail := refOut[len(refOut)-len(gotOut):]
	if !reflect.DeepEqual(gotOut, tail) {
		t.Fatalf("resharded continuation diverges\ngot  %v\nwant %v", gotOut, tail)
	}
}

// TestRestoreRejectsCorruptIndexes hits the bounds checks: out-of-range and
// double-assigned member indexes must error, not panic.
func TestRestoreRejectsCorruptIndexes(t *testing.T) {
	inc := newSerial(t, Config{})
	base := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		m := randomBatch(rand.New(rand.NewSource(int64(i))), 1)[0]
		m.Seq = i
		m.Time = base.Add(time.Duration(i) * time.Second)
		if _, err := inc.Observe(m); err != nil {
			t.Fatal(err)
		}
	}
	good := inc.State(t)

	corrupt := func(mut func(*IncState)) error {
		raw, _ := json.Marshal(good)
		var st IncState
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		mut(&st)
		_, err := restoreSerial(t, ckptCfg(), st)
		if err != nil && !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("refusal %q does not wrap checkpoint.ErrCorrupt", err)
		}
		return err
	}

	if err := corrupt(func(st *IncState) {
		if len(st.Merger.Groups) == 0 {
			t.Skip("no open groups in fixture")
		}
		st.Merger.Groups[0].Members[0] = len(st.Pendings) + 3
	}); err == nil {
		t.Error("out-of-range group member accepted")
	}
	if err := corrupt(func(st *IncState) {
		if len(st.Merger.Groups) == 0 || len(st.Merger.Groups[0].Members) == 0 {
			t.Skip("no open groups in fixture")
		}
		m := st.Merger.Groups[0].Members[0]
		st.Merger.Groups = append(st.Merger.Groups, GroupState{Members: []int{m}})
	}); err == nil {
		t.Error("double group membership accepted")
	}
	if err := corrupt(func(st *IncState) {
		st.Merger.CrossWin = append(st.Merger.CrossWin, -1)
	}); err == nil {
		t.Error("negative cross-window index accepted")
	}
	if err := corrupt(func(st *IncState) {
		if len(st.Locals) == 0 || len(st.Locals[0].Models) == 0 {
			t.Skip("no models in fixture")
		}
		st.Locals[0].Models[0].Last = len(st.Pendings)
	}); err == nil {
		t.Error("out-of-range model predecessor accepted")
	}
	if err := corrupt(func(st *IncState) {
		st.Merger.Groups = append(st.Merger.Groups, GroupState{})
	}); err == nil {
		t.Error("empty group accepted")
	}
}

// TestRestoreResolvesLocationsAgain: a RouterLocal's location IDs are
// private to it and in no snapshot, so a restore has to resolve every window
// member and every model key again or the first rule step after it compares
// IDs against zeroes. Cut the mixed corpus (full windows, overflow IDs,
// unmatched templates) mid-feed and restore the local both ways it travels —
// inside a checkpoint (RestoreParts) and alone, as the seed of a cluster
// session (RestoreLocal): every later step must decide exactly what the
// uninterrupted local decides, joins to pre-cut window members included, and
// the unresolved-location tally must carry over.
func TestRestoreResolvesLocationsAgain(t *testing.T) {
	batch := sortBatch(mixedBatch(rand.New(rand.NewSource(37)), 900))
	for i := range batch {
		// A model snapshot keys its location under the message's router
		// (ModelState), so a checkpointable feed has the two agree.
		batch[i].Router = batch[i].Loc.Router
	}
	const cut = 500
	s, err := NewShardable(toyDict(t), mixedRules(), ckptCfg())
	if err != nil {
		t.Fatal(err)
	}
	rl, mg := s.NewLocal(0), s.NewMerger()
	var js Joins
	for i := 0; i < cut; i++ {
		p := NewPending(batch[i])
		if err := rl.Step(p, &js); err != nil {
			t.Fatal(err)
		}
		if _, err := mg.Apply(p, &js); err != nil {
			t.Fatal(err)
		}
	}

	var viaJSON IncState
	raw, err := json.Marshal(captureParts(t, []*RouterLocal{rl}, mg))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &viaJSON); err != nil {
		t.Fatal(err)
	}
	locals, _, err := s.RestoreParts(viaJSON, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var part LocalPartState
	if raw, err = json.Marshal(CaptureLocal(rl)); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &part); err != nil {
		t.Fatal(err)
	}
	seeded, err := s.RestoreLocal(part, 0)
	if err != nil {
		t.Fatal(err)
	}

	restored := map[string]*RouterLocal{"checkpoint": locals[0], "session seed": seeded}
	preCut := make(map[int]bool, cut)
	for i := 0; i < cut; i++ {
		preCut[batch[i].Seq] = true
	}
	joinsAcrossCut := 0
	var jsR Joins
	for i := cut; i < len(batch); i++ {
		if err := rl.Step(NewPending(batch[i]), &js); err != nil {
			t.Fatal(err)
		}
		for _, m := range js.Rules {
			if preCut[m.msg.Seq] {
				joinsAcrossCut++
			}
		}
		for what, r := range restored {
			if err := r.Step(NewPending(batch[i]), &jsR); err != nil {
				t.Fatal(err)
			}
			if !sameJoinSeqs(&js, &jsR) {
				t.Fatalf("%s: step %d (seq %d) decides %v, the uninterrupted local %v",
					what, i, batch[i].Seq, joinSeqs(&jsR), joinSeqs(&js))
			}
		}
	}
	if joinsAcrossCut == 0 {
		t.Fatal("no rule join reached a pre-cut window member; the fixture does not exercise restored windows")
	}
	for what, r := range restored {
		if got, want := r.Stats(), rl.Stats(); got != want {
			t.Fatalf("%s: stats %+v, uninterrupted %+v", what, got, want)
		}
	}
}
