package core

import (
	"bytes"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"syslogdigest/internal/event"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/syslogmsg"
)

func TestLearnProducesKnowledge(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	if len(kb.Templates) < 10 {
		t.Fatalf("templates = %d", len(kb.Templates))
	}
	if kb.RuleBase.Len() == 0 {
		t.Fatal("no rules mined")
	}
	if kb.Freq.Len() == 0 {
		t.Fatal("no frequencies recorded")
	}
	if kb.Dictionary() == nil || kb.Dictionary().Routers() != 16 {
		t.Fatal("dictionary missing routers")
	}
	// The canonical flap rule must be in the base: LINK down <-> LINEPROTO
	// down on the same router within seconds.
	var linkDown, protoDown = -1, -1
	for _, tpl := range kb.Templates {
		s := tpl.String()
		if strings.HasPrefix(s, "LINK-3-UPDOWN") && strings.HasSuffix(s, "to down") {
			linkDown = tpl.ID
		}
		if strings.HasPrefix(s, "LINEPROTO-5-UPDOWN") && strings.HasSuffix(s, "to down") {
			protoDown = tpl.ID
		}
	}
	if linkDown < 0 || protoDown < 0 {
		t.Fatal("flap templates not learned")
	}
	if !kb.RuleBase.HasPair(linkDown, protoDown) {
		t.Fatal("LINK<->LINEPROTO rule not mined")
	}
}

func TestAugment(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	plus := kb.AugmentAll(ds.Messages[:200])
	matched, located := 0, 0
	for i := range plus {
		if plus[i].Template >= 0 {
			matched++
		}
		if plus[i].Loc.Level != locdict.LevelRouter {
			located++
		}
		if plus[i].Loc.Router != plus[i].Router {
			t.Fatalf("primary location on wrong router: %+v", plus[i].Loc)
		}
	}
	if matched < 190 {
		t.Fatalf("only %d/200 messages matched a template", matched)
	}
	if located == 0 {
		t.Fatal("no message resolved below router level")
	}
}

func TestDigestCompresses(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Digest(ds.Messages)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("no events")
	}
	ratio := res.CompressionRatio()
	if ratio >= 0.2 {
		t.Fatalf("compression ratio %v too weak", ratio)
	}
	// Events are rank-ordered and carry presentation fields.
	prev := res.Events[0].Score
	for _, e := range res.Events {
		if e.Score > prev {
			t.Fatal("events not rank-ordered")
		}
		prev = e.Score
		if e.Start.IsZero() || len(e.Routers) == 0 || e.Label == "" {
			t.Fatalf("event missing fields: %+v", e)
		}
		if len(strings.Split(e.Digest(), "|")) != 5 {
			t.Fatalf("digest line malformed: %q", e.Digest())
		}
	}
}

func TestDigestStagesMonotone(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	d, err := NewDigester(kb)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[Stage]int)
	for _, st := range []Stage{StageTemporal, StageTemporalRules, StageFull} {
		d.SetStage(st)
		res, err := d.Digest(ds.Messages)
		if err != nil {
			t.Fatal(err)
		}
		counts[st] = len(res.Events)
	}
	if !(counts[StageTemporal] >= counts[StageTemporalRules] &&
		counts[StageTemporalRules] >= counts[StageFull]) {
		t.Fatalf("stage event counts not monotone: %v", counts)
	}
	if counts[StageTemporal] == counts[StageFull] {
		t.Fatal("rules and cross-router grouping had no effect at all")
	}
}

func TestDigestActiveRules(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	d, _ := NewDigester(kb)
	res, err := d.Digest(ds.Messages)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ActiveRules) == 0 {
		t.Fatal("no active rules on a flap-heavy corpus")
	}
}

func TestKnowledgeBaseSaveLoadRoundTrip(t *testing.T) {
	kb, ds := learnSmall(t, gen.DatasetA)
	var buf bytes.Buffer
	if err := kb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	kb2, err := LoadKnowledgeBase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(kb2.Templates) != len(kb.Templates) {
		t.Fatalf("templates %d != %d", len(kb2.Templates), len(kb.Templates))
	}
	if kb2.RuleBase.Len() != kb.RuleBase.Len() {
		t.Fatalf("rules %d != %d", kb2.RuleBase.Len(), kb.RuleBase.Len())
	}
	if kb2.Freq.Len() != kb.Freq.Len() {
		t.Fatalf("freq %d != %d", kb2.Freq.Len(), kb.Freq.Len())
	}
	if kb2.Params.Temporal != kb.Params.Temporal {
		t.Fatalf("temporal params %+v != %+v", kb2.Params.Temporal, kb.Params.Temporal)
	}
	if kb2.Dictionary().Routers() != kb.Dictionary().Routers() {
		t.Fatal("dictionary size differs after reload")
	}
	// Digesting with the reloaded base gives identical events.
	d1, _ := NewDigester(kb)
	d2, _ := NewDigester(kb2)
	r1, err := d1.Digest(ds.Messages[:2000])
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d2.Digest(ds.Messages[:2000])
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Events) != len(r2.Events) {
		t.Fatalf("event counts differ after reload: %d vs %d", len(r1.Events), len(r2.Events))
	}
	for i := range r1.Events {
		if r1.Events[i].Digest() != r2.Events[i].Digest() {
			t.Fatalf("event %d differs after reload", i)
		}
	}
}

// TestKnowledgeBaseRoundTripKeepsTuning: every parameter with output
// semantics survives Save and Load. The storm tuning's raised scan cap is
// the one that shows: a base reloaded with the 256 default digests a storm
// differently.
func TestKnowledgeBaseRoundTripKeepsTuning(t *testing.T) {
	f := learnStorm(t)
	kb := cloneKB(t, f.kb)
	kb.Params.Rules.Window = f.kb.Params.Rules.Window
	kb.Params.MaxScan = f.kb.Params.MaxScan
	kb.Params.Rules.MinEvidence = 9
	kb.Params.Rules.MaxItemsPerTx = 32
	reloaded := cloneKB(t, kb)
	learned := func(p Params) Params {
		p.Parallelism, p.MatchCache, p.Template.Pool, p.Rules.Pool = 0, 0, nil, nil // runtime knobs, never serialized
		return p
	}
	if got, want := learned(reloaded.Params), learned(kb.Params); !reflect.DeepEqual(got, want) {
		t.Fatalf("params after Save/Load = %+v, want %+v", got, want)
	}
	// The first 10 000 storm messages already fill a rule window past the
	// 256 default: digested at that cap they come out as one more event.
	msgs := f.ds.Messages[:10000]
	digest := func(kb *KnowledgeBase) []event.Event {
		d, err := NewDigester(kb)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Digest(msgs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Events
	}
	want, got := digest(kb), digest(reloaded)
	if len(got) != len(want) {
		t.Fatalf("reloaded base digests %d messages into %d events, want %d", len(msgs), len(got), len(want))
	}
	for i := range want {
		if got[i].Digest() != want[i].Digest() {
			t.Fatalf("event %d differs after Save/Load", i)
		}
	}
}

// TestAugmentUnknownRoutersRetainNothing: a feed of router names no config
// knows (spoofed or relay-mangled senders) leaves nothing behind on the
// augment path once the match cache is off — no per-name entry anywhere.
func TestAugmentUnknownRoutersRetainNothing(t *testing.T) {
	kb, ds := mutableKB(t, gen.DatasetA)
	kb.SetMatchCache(-1)
	m := syslogmsg.Message{Time: ds.Messages[0].Time, Code: ds.Messages[0].Code, Detail: "state changed"}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	const names = 100000
	for i := 0; i < names; i++ {
		m.Router = "spoofed-" + strconv.Itoa(i)
		if pm := kb.Augment(&m); pm.Loc != locdict.RouterLoc(m.Router) {
			t.Fatalf("unknown router %q located at %+v", m.Router, pm.Loc)
		}
	}
	grew := heap() - before
	runtime.KeepAlive(kb) // the base is what would hold the entries
	if grew > 1<<20 {
		t.Fatalf("augmenting %d unknown router names retained %d bytes of heap", names, grew)
	}
}

func TestLoadKnowledgeBaseRejectsGarbage(t *testing.T) {
	if _, err := LoadKnowledgeBase(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadKnowledgeBase(strings.NewReader(`{"configs":["bogus config"]}`)); err == nil {
		t.Fatal("bad embedded config accepted")
	}
}

func TestLearnWithCalibration(t *testing.T) {
	ds, err := gen.Generate(gen.Spec{
		Kind: gen.DatasetA, Routers: 12, Seed: 5,
		Duration: 24 * time.Hour, RateScale: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.CalibrateTemporal = true
	kb, err := NewLearner(p).Learn(ds.Messages, ds.Net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if kb.Params.Temporal.Alpha <= 0 || kb.Params.Temporal.Beta < 1 {
		t.Fatalf("calibrated params implausible: %+v", kb.Params.Temporal)
	}
}

func TestUpdateRulesWeekly(t *testing.T) {
	kb, ds := mutableKB(t, gen.DatasetA)
	l := NewLearner(DefaultParams())
	before := kb.RuleBase.Len()
	st, err := l.UpdateRules(kb, ds.Messages)
	if err != nil {
		t.Fatal(err)
	}
	// Re-mining the same period cannot contradict rules it just confirmed.
	if st.Total < before {
		t.Fatalf("self-update shrank the rule base: %+v (was %d)", st, before)
	}
}

// TestStreamerSurvivesTimeTravel: a message arriving behind the released
// frontier is dropped and counted, never an error — a live feed must
// outlive one router's bad clock. (Until PR 4 this was a hard error that
// killed the stream.)
func TestStreamerSurvivesTimeTravel(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	d, _ := NewDigester(kb)
	s := NewStreamerWith(d, StreamerOptions{ReorderTolerance: -1}) // strict: release immediately
	reg := obs.NewRegistry()
	s.Instrument(reg)
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(at time.Time) syslogmsg.Message {
		return syslogmsg.Message{Time: at, Router: "x", Code: "A-1-B", Detail: "d"}
	}
	if _, err := s.Push(mk(t0)); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Push(mk(t0.Add(-time.Hour))); err != nil || res != nil {
		t.Fatalf("late message: res=%v err=%v, want silent drop", res, err)
	}
	// The stream survives: later messages still group and flush.
	if _, err := s.Push(mk(t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	res, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("stream.dropped.late"); got != 1 {
		t.Errorf("dropped.late = %d, want 1", got)
	}
	total := 0
	if res != nil {
		for _, e := range res.Events {
			total += e.Size()
		}
	}
	if total != 2 {
		t.Errorf("flushed %d messages, want 2 (late one dropped)", total)
	}
}

func TestNewDigesterErrors(t *testing.T) {
	if _, err := NewDigester(nil); err == nil {
		t.Fatal("nil knowledge base accepted")
	}
	if _, err := NewDigester(&KnowledgeBase{}); err == nil {
		t.Fatal("unfinished knowledge base accepted")
	}
}

func TestApplyExpertPersists(t *testing.T) {
	kb, _ := mutableKB(t, gen.DatasetA)
	// Name the LINK-down template and assert a rule between the first two
	// templates, then check both survive KB serialization.
	var linkDown core0TemplateRef
	for _, tpl := range kb.Templates {
		if strings.HasPrefix(tpl.String(), "LINK-3-UPDOWN") && strings.HasSuffix(tpl.String(), "to down") {
			linkDown = core0TemplateRef{tpl.ID, tpl.String()}
		}
	}
	if linkDown.display == "" {
		t.Skip("no LINK-down template at this seed")
	}
	directives := "name " + linkDown.display + " => carrier loss\n"
	n, err := kb.ApplyExpert(strings.NewReader(directives))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("applied = %d", n)
	}

	var buf bytes.Buffer
	if err := kb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	kb2, err := LoadKnowledgeBase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDigester(kb2)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Labeler().TemplateName(linkDown.id); got != "carrier loss" {
		t.Fatalf("expert name lost across save/load: %q", got)
	}
}

type core0TemplateRef struct {
	id      int
	display string
}

func TestApplyExpertBadDirectives(t *testing.T) {
	kb, _ := mutableKB(t, gen.DatasetA)
	if _, err := kb.ApplyExpert(strings.NewReader("name NOPE|missing => x\n")); err == nil {
		t.Fatal("bad directive accepted")
	}
}

func TestReportAndNarrative(t *testing.T) {
	kb, _ := learnSmall(t, gen.DatasetA)
	var buf bytes.Buffer
	if err := kb.Report(&buf, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"parameters:", "inventory:", "templates (", "rules (", "top 5 signatures"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out[:200])
		}
	}
	narr := kb.RulesNarrative()
	if len(narr) == 0 {
		t.Fatal("no rule narrative")
	}
	for i := 1; i < len(narr); i++ {
		if narr[i] < narr[i-1] {
			t.Fatal("narrative not sorted")
		}
	}
	if err := (&KnowledgeBase{}).Report(&buf, 0); err == nil {
		t.Fatal("uninitialized kb reported")
	}
}
