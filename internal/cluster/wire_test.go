package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
)

func frameBytes(typ FrameType, payload []byte) []byte {
	return appendFrame(nil, typ, payload)
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xab}, 4096)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := writeFrame(&buf, FrameBatch, p); err != nil {
			t.Fatal(err)
		}
		typ, got, _, err := readFrame(&buf, nil)
		if err != nil {
			t.Fatalf("payload %d bytes: %v", len(p), err)
		}
		if typ != FrameBatch || !bytes.Equal(got, p) {
			t.Fatalf("round trip: type %d, %d bytes", typ, len(got))
		}
	}
}

// TestFrameCorruption is the satellite contract: every corruption class is
// rejected with a classified error, never a panic, never a guess.
func TestFrameCorruption(t *testing.T) {
	good := frameBytes(FrameDecisions, []byte("payload-bytes"))
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrBadMagic},
		{"future version", func(b []byte) []byte { b[4] = Version + 1; return b }, ErrVersion},
		{"version 1", func(b []byte) []byte { b[4] = 1; return b }, ErrVersion},
		{"version 2", func(b []byte) []byte { b[4] = 2; return b }, ErrVersion},
		{"version 3", func(b []byte) []byte { b[4] = 3; return b }, ErrVersion},
		{"version 4", func(b []byte) []byte { b[4] = 4; return b }, ErrVersion},
		{"oversize length", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[6:10], MaxFrameBytes+1)
			return b
		}, ErrFrameSize},
		{"bad crc", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrCRC},
		{"truncated header", func(b []byte) []byte { return b[:headerLen-3] }, io.ErrUnexpectedEOF},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-4] }, io.ErrUnexpectedEOF},
		{"empty", func(b []byte) []byte { return nil }, io.EOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			_, _, _, err := readFrame(bytes.NewReader(b), nil)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, FrameBatch, []byte("first-payload"))
	writeFrame(&buf, FrameBatch, []byte("2nd"))
	_, p1, scratch, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	backing := &p1[0]
	_, p2, _, err := readFrame(&buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2) != "2nd" {
		t.Fatalf("second payload %q", p2)
	}
	if &p2[0] != backing {
		t.Fatal("small payload did not reuse the buffer")
	}
}

func wireMessages() []grouping.Message {
	base := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	l1 := locdict.IntfLoc("r1", "Serial1/0.10/10:0")
	l2 := locdict.IntfLoc("r2", "Serial1/0.20/20:0")
	return []grouping.Message{
		{Seq: 3, Time: base, Router: "r1", Template: 1, Loc: l1,
			AllLocs: []locdict.Location{l1, locdict.RouterLoc("r1")}, Peers: []string{"r2"}, Raw: 7},
		{Seq: 4, Time: base.Add(time.Second), Router: "r2", Template: -1, Loc: l2, Raw: 0},
		{Seq: 9, Time: base.Add(-3 * time.Second), Router: "r1", Template: 2, Loc: l1,
			Peers: []string{"r2", "r1"}},
	}
}

func sameMessage(a, b grouping.Message) bool {
	if a.Seq != b.Seq || !a.Time.Equal(b.Time) || a.Router != b.Router ||
		a.Template != b.Template || a.Loc != b.Loc || a.Raw != b.Raw {
		return false
	}
	if len(a.AllLocs) != len(b.AllLocs) || len(a.Peers) != len(b.Peers) {
		return false
	}
	for i := range a.AllLocs {
		if a.AllLocs[i] != b.AllLocs[i] {
			return false
		}
	}
	for i := range a.Peers {
		if a.Peers[i] != b.Peers[i] {
			return false
		}
	}
	return true
}

// TestBatchRoundTrip pins full message fidelity through the dictionary
// encoding — twice on one connection, so the second batch exercises the
// all-references path.
func TestBatchRoundTrip(t *testing.T) {
	msgs := wireMessages()
	ps := make([]*grouping.Pending, len(msgs))
	for i, m := range msgs {
		ps[i] = grouping.NewPending(m)
	}
	ed := newEncDict()
	var dd decDict
	for round := 1; round <= 2; round++ {
		payload := appendBatch(nil, ed, uint64(round), round == 2, ps)
		h, bd, err := decodeBatch(payload, &dd)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if h.Seq != uint64(round) || h.Drain != (round == 2) || h.Count != len(msgs) {
			t.Fatalf("round %d: header %+v", round, h)
		}
		var m grouping.Message
		for i := 0; ; i++ {
			ok, err := bd.next(&m)
			if err != nil {
				t.Fatalf("round %d msg %d: %v", round, i, err)
			}
			if !ok {
				if i != len(msgs) {
					t.Fatalf("round %d: decoded %d of %d", round, i, len(msgs))
				}
				break
			}
			if !sameMessage(m, msgs[i]) {
				t.Fatalf("round %d msg %d:\n got %+v\nwant %+v", round, i, m, msgs[i])
			}
		}
	}
}

// TestBatchDictDesync: a fresh decoder seeing a reference-only batch (as
// after a lost replay) must fail with ErrDictDesync, not fabricate strings.
func TestBatchDictDesync(t *testing.T) {
	msgs := wireMessages()
	ps := make([]*grouping.Pending, len(msgs))
	for i, m := range msgs {
		ps[i] = grouping.NewPending(m)
	}
	ed := newEncDict()
	appendBatch(nil, ed, 1, false, ps) // defines the symbols
	second := appendBatch(nil, ed, 2, false, ps)

	var fresh decDict
	_, bd, err := decodeBatch(second, &fresh)
	if err == nil {
		var m grouping.Message
		for {
			ok, nerr := bd.next(&m)
			if nerr != nil {
				err = nerr
				break
			}
			if !ok {
				break
			}
		}
	}
	if !errors.Is(err, ErrDictDesync) {
		t.Fatalf("err = %v, want ErrDictDesync", err)
	}

	// A correctly seeded decoder accepts the same bytes.
	var seeded decDict
	seeded.seed(ed.prefix(ed.len()))
	_, bd, err = decodeBatch(second, &seeded)
	if err != nil {
		t.Fatal(err)
	}
	var m grouping.Message
	for {
		ok, err := bd.next(&m)
		if err != nil {
			t.Fatalf("seeded decode: %v", err)
		}
		if !ok {
			break
		}
	}
}

func TestDecisionsRoundTrip(t *testing.T) {
	items := []DecisionItem{
		{Temporal: 0, RS: 0, RE: 0},
		{Temporal: 5, RS: 0, RE: 2},
		{Temporal: 1, RS: 2, RE: 3},
	}
	arena := []uint64{4, 9, 1}
	full := grouping.LocalStats{Streams: 12, Evictions: 3, RuleCandidates: 44, RulePairs: 7, UnresolvedLocs: 300}
	for _, stats := range []grouping.LocalStats{{}, full} {
		payload := appendDecisions(nil, 17, items, arena, stats, "boom")
		db := DecisionBatch{Stats: grouping.LocalStats{UnresolvedLocs: 9}} // reused batches must not keep a stale tally
		if err := decodeDecisions(payload, &db); err != nil {
			t.Fatal(err)
		}
		if db.Seq != 17 || db.Stats != stats || db.ShardErr != "boom" {
			t.Fatalf("decoded %+v", db)
		}
		if len(db.Items) != len(items) {
			t.Fatalf("items %d", len(db.Items))
		}
		for i, it := range db.Items {
			if it != items[i] {
				t.Fatalf("item %d: %+v != %+v", i, it, items[i])
			}
		}
		for i, d := range db.Rules {
			if d != arena[i] {
				t.Fatalf("arena %d: %d != %d", i, d, arena[i])
			}
		}
		// Every field is required: truncation anywhere must error, never
		// panic, and so must a byte past the last item.
		for cut := 0; cut < len(payload); cut++ {
			var trunc DecisionBatch
			if err := decodeDecisions(payload[:cut], &trunc); err == nil {
				t.Fatalf("cut %d of %d: no error", cut, len(payload))
			}
		}
		if err := decodeDecisions(append(payload, 0), &db); !errors.Is(err, ErrMalformed) {
			t.Fatalf("trailing byte: %v, want ErrMalformed", err)
		}
	}
}

// eachSlice visits every slice reachable from v, outermost first; setting
// one to nil or empty inside f stops the walk below it.
func eachSlice(v reflect.Value, f func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				eachSlice(v.Field(i), f)
			}
		}
	case reflect.Slice:
		f(v)
		for i := 0; i < v.Len(); i++ {
			eachSlice(v.Index(i), f)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// clonePart deep-copies part; JSON keeps nil and empty slices apart.
func clonePart(t *testing.T, part grouping.LocalPartState) grouping.LocalPartState {
	t.Helper()
	var cp grouping.LocalPartState
	if err := json.Unmarshal([]byte(mustJSON(t, part)), &cp); err != nil {
		t.Fatal(err)
	}
	return cp
}

// withSlice copies part with its k-th slice (eachSlice order) set to nil or
// to an empty slice.
func withSlice(t *testing.T, part grouping.LocalPartState, k int, empty bool) grouping.LocalPartState {
	t.Helper()
	cp := clonePart(t, part)
	i := 0
	eachSlice(reflect.ValueOf(&cp).Elem(), func(s reflect.Value) {
		if i == k {
			if empty {
				s.Set(reflect.MakeSlice(s.Type(), 0, 0))
			} else {
				s.Set(reflect.Zero(s.Type()))
			}
		}
		i++
	})
	return cp
}

// TestStateRoundTrip pins the state request and the part codec's coverage:
// with every field of PendingState, locdict.Location, ModelState,
// temporal.GrouperState and LocalState set (all five fields of its embedded
// LocalStats included), with each slice in turn nil and empty, at extreme
// values, and for a real capture, a part must come back out of a State body
// and out of a Restore body equal to what went in as JSON bytes, the form
// it takes in a checkpoint, and with the same book (JSON leaves out
// Streams, the wire does not). A field added to those types and forgotten
// by the codec fails here.
func TestStateRoundTrip(t *testing.T) {
	token, err := decodeStateReq(appendStateReq(nil, 99))
	if err != nil || token != 99 {
		t.Fatalf("state req: token %d err %v", token, err)
	}
	var full grouping.LocalPartState
	var next int64
	fillNonZero(t, reflect.ValueOf(&full).Elem(), &next)
	edge := clonePart(t, full)
	edge.Pendings[0].Seq, edge.Pendings[1].Seq = math.MaxInt64, math.MinInt64
	edge.Pendings[0].TimeNs, edge.Pendings[1].TimeNs = math.MinInt64, math.MaxInt64
	edge.Pendings[0].Template, edge.Pendings[0].Raw = -1, math.MaxUint64
	edge.Pendings[0].Loc.Level = -3
	edge.Local.Models[0].Last, edge.Local.Models[0].Temporal.EwmaValue = -1, -math.MaxFloat64
	edge.Local.Models[1].Temporal.LastNs = math.MinInt64
	edge.Local.Windows[0].Members = []int{math.MaxInt64, -7, 0, math.MinInt64}
	edge.Local.Evictions = -2
	parts := []grouping.LocalPartState{full, {}, testPart(t, 300), edge}
	slices := 0
	eachSlice(reflect.ValueOf(&full).Elem(), func(reflect.Value) { slices++ })
	for k := 0; k < slices; k++ {
		parts = append(parts, withSlice(t, full, k, false), withSlice(t, full, k, true))
	}
	for i, part := range parts {
		want := mustJSON(t, part)
		payload := appendState(nil, 42, &part)
		token, body, got, err := decodeState(payload)
		if err != nil || token != 42 {
			t.Fatalf("part %d: state token %d, err %v", i, token, err)
		}
		if g := mustJSON(t, got); g != want {
			t.Fatalf("part %d changed across a State body:\n got %s\nwant %s", i, g, want)
		}
		if got.Local.LocalStats != part.Local.LocalStats {
			t.Fatalf("part %d: book %+v across a State body, want %+v", i, got.Local.LocalStats, part.Local.LocalStats)
		}
		restore := appendRestore(nil, 17, []string{"r1", "Serial1/0.10/10:0"}, body)
		res, err := decodeRestore(restore)
		if err != nil || res.BatchSeq != 17 || !reflect.DeepEqual(res.Dict, []string{"r1", "Serial1/0.10/10:0"}) {
			t.Fatalf("part %d: restore %d %q, err %v", i, res.BatchSeq, res.Dict, err)
		}
		if g := mustJSON(t, res.Part); g != want {
			t.Fatalf("part %d changed across a Restore body:\n got %s\nwant %s", i, g, want)
		}
		if i > 3 {
			continue // the cuts below need one pass over each shape, not every variant
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, _, _, err := decodeState(payload[:cut]); err == nil {
				t.Fatalf("part %d: state cut at %d of %d accepted", i, cut, len(payload))
			}
		}
		for cut := 0; cut < len(restore); cut++ {
			if _, err := decodeRestore(restore[:cut]); err == nil {
				t.Fatalf("part %d: restore cut at %d of %d accepted", i, cut, len(restore))
			}
		}
		if _, _, _, err := decodeState(append(payload, 0)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("part %d: trailing state byte: err %v, want ErrMalformed", i, err)
		}
		if _, err := decodeRestore(append(restore, 0)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("part %d: trailing restore byte: err %v, want ErrMalformed", i, err)
		}
	}
}

// drainBatch runs a decoder to exhaustion, for the fuzzers.
func drainBatch(payload []byte, dd *decDict) {
	_, bd, err := decodeBatch(payload, dd)
	if err != nil {
		return
	}
	var m grouping.Message
	for {
		ok, err := bd.next(&m)
		if err != nil || !ok {
			return
		}
	}
}

func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(FrameBatch, []byte("seed")))
	f.Add(frameBytes(FrameHello, nil))
	f.Add([]byte("SDW1 but not really a frame"))
	f.Add(bytes.Repeat([]byte{0xff}, headerLen+8))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			_, _, _, err := readFrame(r, nil)
			if err != nil {
				return
			}
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	ed := newEncDict()
	ps := make([]*grouping.Pending, 0, 3)
	for _, m := range wireMessages() {
		ps = append(ps, grouping.NewPending(m))
	}
	f.Add(appendBatch(nil, ed, 1, true, ps))
	f.Add(appendBatch(nil, ed, 2, false, ps)) // reference-only symbols
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dd decDict
		drainBatch(data, &dd)
		// And against a decoder with prior state, as on a live connection.
		seeded := decDict{}
		seeded.seed(ed.prefix(ed.len()))
		drainBatch(data, &seeded)
	})
}

// FuzzDecodeDecisions: damaged Decisions payloads are refused, never a
// panic, and whatever decodes re-encodes to a payload that decodes the same.
func FuzzDecodeDecisions(f *testing.F) {
	f.Add(appendDecisions(nil, 3,
		[]DecisionItem{{Temporal: 1, RS: 0, RE: 1}}, []uint64{2},
		grouping.LocalStats{Streams: 1}, ""))
	f.Add(appendDecisions(nil, 9,
		[]DecisionItem{{}, {Temporal: 4, RS: 0, RE: 2}}, []uint64{7, 1},
		grouping.LocalStats{Streams: 2, Evictions: 3, RuleCandidates: 4, RulePairs: 5, UnresolvedLocs: 6}, "boom"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var db DecisionBatch
		if decodeDecisions(data, &db) != nil {
			return
		}
		var again DecisionBatch
		if err := decodeDecisions(appendDecisions(nil, db.Seq, db.Items, db.Rules, db.Stats, db.ShardErr), &again); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", db, err)
		}
		if !reflect.DeepEqual(again, db) {
			t.Fatalf("re-encoded batch decodes to %+v, was %+v", again, db)
		}
	})
}

func FuzzDecodeState(f *testing.F) {
	part := testPart(f, 300)
	f.Add(appendState(nil, 7, &part))
	f.Add(appendState(nil, 0, &grouping.LocalPartState{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeState(data)
		decodeStateReq(data)
	})
}

// FuzzRestoreFrame feeds damaged Restore payloads down the path a shard
// takes in the handshake — decode, RestoreLocal — then steps a probe
// through what was restored. Refusing is fine; a panic is not.
func FuzzRestoreFrame(f *testing.F) {
	dict, rb := testKnowledge(f)
	s, err := grouping.NewShardable(dict, rb, grouping.IncrementalConfig{Config: testGroupingConfig()})
	if err != nil {
		f.Fatal(err)
	}
	// Small on purpose: the fuzzer minimizes every new input it keeps.
	part := testPart(f, 40)
	seed := appendRestore(nil, 12, []string{"r1", "r2"}, appendPart(nil, &part))
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-1])
	flipped := append([]byte(nil), seed...)
	for i := len(flipped) / 7; i < len(flipped); i += len(flipped) / 5 {
		flipped[i] ^= 1
	}
	f.Add(flipped)
	f.Add(appendRestore(nil, 0, nil, appendPart(nil, &grouping.LocalPartState{})))

	probe := grouping.Message{
		Seq: 1 << 30, Time: testPartBase.Add(time.Hour),
		Router: "r1", Template: 1, Loc: locdict.IntfLoc("r1", "Serial1/0.10/10:0"),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeRestore(data)
		if err != nil {
			return
		}
		// A window sizes its bucket table to the largest template ID it
		// holds: fold large IDs down so every exec stays fast (the grouping
		// package's FuzzRestoreLocal covers IDs past the bound).
		fold := func(t *int) {
			if *t > 1<<10 {
				*t %= 1 << 10
			}
		}
		for i := range res.Part.Pendings {
			fold(&res.Part.Pendings[i].Template)
		}
		for i := range res.Part.Local.Models {
			fold(&res.Part.Local.Models[i].Template)
		}
		local, err := s.RestoreLocal(res.Part, 0)
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("refusal %q does not wrap checkpoint.ErrCorrupt", err)
			}
			return
		}
		p := grouping.NewPending(probe)
		var js grouping.Joins
		if err := local.Step(p, &js); err != nil {
			t.Logf("probe step: %v", err)
		}
		p.Release()
		grouping.CaptureLocal(local)
		local.DrainWindows()
	})
}

// FuzzHello feeds arbitrary Hello payloads down the path a shard takes in
// the handshake — decode, NewShardable, NewLocal — then steps a probe
// through the new local. Refusing is fine; a panic is not: nothing
// recovers one in a session goroutine, so it would take down the whole
// shard process.
func FuzzHello(f *testing.F) {
	dict, rb := testKnowledge(f)
	good, err := json.Marshal(Hello{Workers: 1, KBSig: Fingerprint(dict, rb), Config: testGroupingConfig()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"workers":1,"config":{"max_scan":-1000}}`))
	f.Add([]byte(`{"config":{"stage":7,"rule_window":-1,"temporal":{"Alpha":2}}}`))
	f.Add([]byte{})

	probe := grouping.Message{
		Seq: 1, Time: testPartBase, Router: "r1", Template: 1,
		Loc: locdict.IntfLoc("r1", "Serial1/0.10/10:0"),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var hello Hello
		if err := unmarshalJSONFrame(data, &hello); err != nil {
			return
		}
		s, err := grouping.NewShardable(dict, rb, grouping.IncrementalConfig{Config: hello.Config, MaxStreams: hello.MaxStreams})
		if err != nil {
			return
		}
		local := s.NewLocal(hello.MaxStreams)
		p := grouping.NewPending(probe)
		var js grouping.Joins
		if err := local.Step(p, &js); err != nil {
			t.Fatalf("probe step: %v", err)
		}
		p.Release()
	})
}

// fillNonZero sets every exported field under v (recursing into structs and
// slices) to a distinct non-zero value.
func fillNonZero(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		sf, f := v.Type().Field(i), v.Field(i)
		if !sf.IsExported() {
			continue
		}
		fillValue(t, sf.Name, f, next)
		if f.IsZero() {
			t.Fatalf("field %s left zero", sf.Name)
		}
	}
}

// fillValue sets f, the field name or an element of it, to a distinct
// non-zero value; a slice gets two elements.
func fillValue(t *testing.T, name string, f reflect.Value, next *int64) {
	t.Helper()
	*next++
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int64:
		f.SetInt(*next)
	case reflect.Uint64:
		f.SetUint(uint64(*next))
	case reflect.Float64:
		f.SetFloat(float64(*next) + 0.5)
	case reflect.String:
		f.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Struct:
		fillNonZero(t, f, next)
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 2, 2))
		for i := 0; i < f.Len(); i++ {
			fillValue(t, name, f.Index(i), next)
		}
	default:
		t.Fatalf("field %s has kind %s: teach fillNonZero to set it", name, f.Kind())
	}
}

// TestHelloConfigRoundTrip pins the handshake's coverage of
// grouping.Config, which the Hello carries as is: with every exported field
// set, at each Stage, the configuration must come back from the Hello JSON
// unchanged. A field added to Config that JSON cannot carry fails here
// instead of silently running the shard on its default.
func TestHelloConfigRoundTrip(t *testing.T) {
	var want grouping.Config
	var next int64
	fillNonZero(t, reflect.ValueOf(&want).Elem(), &next)
	for _, st := range []grouping.Stage{grouping.StageFull, grouping.StageTemporal, grouping.StageTemporalRules} {
		want.Stage = st
		raw, err := marshalJSONFrame(Hello{Config: want})
		if err != nil {
			t.Fatal(err)
		}
		var hello Hello
		if err := unmarshalJSONFrame(raw, &hello); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hello.Config, want) {
			t.Fatalf("stage %d: grouping.Config changed across the handshake:\ngot  %+v\nwant %+v", st, hello.Config, want)
		}
	}
}
