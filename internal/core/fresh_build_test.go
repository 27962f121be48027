package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
)

// TestPublishedRecordsMatchFreshBuilds is the engine-level oracle of the
// resumable build. The engines fold only the members an identity gained
// into its accumulator, so every record they publish — provisional,
// revised, final — must equal the event a fresh Builder makes of that
// record's whole membership. The memberships come from a hand composition
// of the serial engine's step (RouterLocal.Step, Merger.Apply, TakeUpdates,
// Recycle) that keeps no accumulator, the records from the serial reference
// run that TestDifferential holds every other shape to. On corpus A and the
// first 25 k messages of the storm, where merges bring older members into
// published identities and revisions must start over.
func TestPublishedRecordsMatchFreshBuilds(t *testing.T) {
	for _, p := range []plan{
		{corpus: corpusA, horizon: provHorizon},
		{corpus: corpusStorm, hi: 25000, horizon: provHorizon},
	} {
		t.Run(p.corpus.String(), func(t *testing.T) {
			f := fixtureFor(t, p.corpus)
			msgs := p.messages(f)
			want := reference(t, p).upds
			d, err := NewDigester(f.kb)
			if err != nil {
				t.Fatal(err)
			}
			cfg := d.engineConfig(0, p.horizon)
			sh, err := grouping.NewShardable(f.kb.Dictionary(), f.kb.RuleBase, cfg.Grouping)
			if err != nil {
				t.Fatal(err)
			}
			local, mg := sh.NewLocal(0), sh.NewMerger()
			var (
				js               grouping.Joins
				n, nextID        int
				grown, restarted int                  // republications whose last publication is / is not their prefix
				held             = map[uint64][]int{} // each live identity's last published Seqs
			)
			record := func(id uint64, rev int, st event.Status) *event.Update {
				t.Helper()
				if n == len(want) {
					t.Fatalf("the composition publishes more than the engine's %d records", len(want))
				}
				w := &want[n]
				if w.EventID != id || w.Revision != rev || w.Status != st {
					t.Fatalf("record %d: composition %d rev%d %v, engine %d rev%d %v", n, id, rev, st, w.EventID, w.Revision, w.Status)
				}
				n++
				return w
			}
			check := func(w *event.Update, members []grouping.Message, evID int) {
				t.Helper()
				ev := event.NewBuilder(cfg.Freq, cfg.Labeler).BuildGroup(members)
				ev.ID = evID
				if math.Float64bits(ev.Score) != math.Float64bits(w.Event.Score) || !reflect.DeepEqual(ev, w.Event) {
					t.Fatalf("record %d (%d rev%d %v) differs from a fresh build of its %d members\nengine: %+v\n fresh: %+v",
						n-1, w.EventID, w.Revision, w.Status, len(members), w.Event, ev)
				}
				if prev, ok := held[w.EventID]; ok {
					if len(prev) <= len(members) && slices.EqualFunc(prev, members[:len(prev)], func(s int, m grouping.Message) bool { return s == m.Seq }) {
						grown++
					} else {
						restarted++
					}
				}
				held[w.EventID] = ev.MessageSeqs
			}
			step := func(closed []grouping.ClosedGroup) {
				for _, gu := range mg.TakeUpdates() {
					switch gu.Kind {
					case grouping.UpdateSuperseded:
						record(gu.ID, gu.Revision, event.StatusSuperseded)
						delete(held, gu.ID)
					case grouping.UpdateRevised:
						check(record(gu.ID, gu.Revision, event.StatusRevised), gu.Members, -1)
					default:
						check(record(gu.ID, gu.Revision, event.StatusProvisional), gu.Members, -1)
					}
				}
				for _, cg := range closed {
					check(record(cg.ID, cg.Revision, event.StatusFinal), cg.Members, nextID)
					delete(held, cg.ID)
					nextID++
				}
				mg.Recycle(closed)
			}
			for i := range msgs {
				pm := f.kb.Augment(&msgs[i])
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
			if n != len(want) {
				t.Fatalf("the composition published %d records, the engine %d", n, len(want))
			}
			t.Logf("%d records; %d republications grew the last one, %d did not", n, grown, restarted)
			if grown == 0 || restarted == 0 {
				t.Fatal("the run does not exercise both the resumed and the restarted build")
			}
		})
	}
}
