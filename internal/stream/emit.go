package stream

import (
	"time"

	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
)

// emitter is the one grouper-output → event step, shared by every engine
// shape: it scores and labels a closed group exactly as the batch path
// would, numbers the final stream, converts provisional-tier updates, and
// keeps the emission books. The serial engine calls it inline, the sharded
// core on its merge goroutine — which is why the update stream is the
// serial engine's at any shard count. Not safe for concurrent use.
type emitter struct {
	builder *event.Builder
	nextID  int  // next final-stream event ID
	prov    bool // provisional tier on (cfg.Grouping.ProvisionalHorizon > 0)
	met     Metrics
}

func newEmitter(cfg Config) emitter {
	return emitter{
		builder: event.NewBuilder(cfg.Freq, cfg.Labeler),
		prov:    cfg.Grouping.ProvisionalHorizon > 0,
	}
}

// emit converts the output of one grouper step (an Apply or a Drain at
// watermark wm): the provisional-tier updates first, so provisional
// records always precede the final records they anticipate, then one event
// per closed group, oldest first, each with its final record when the tier
// is on. Events append to out, tier-tagged records to upd. The Members of
// gus and closed are the grouper's scratch (see Merger.TakeUpdates); the
// builder reads them in place and the events it returns hold none of them.
func (em *emitter) emit(gus []grouping.GroupUpdate, closed []grouping.ClosedGroup, wm time.Time, out *[]event.Event, upd *[]event.Update) {
	for i := range gus {
		*upd = append(*upd, em.update(&gus[i], wm))
	}
	for i := range closed {
		cg := &closed[i]
		ev := em.builder.BuildMessages(cg.Members)
		ev.ID = em.nextID
		em.nextID++
		em.met.Emitted.Inc()
		em.met.EmitLatency.Observe(wm.Sub(ev.End).Seconds())
		if em.prov {
			em.met.ProvFinalized.Inc()
			em.met.RevisionChurn.Observe(float64(cg.Revision))
			*upd = append(*upd, event.Update{
				EventID: cg.ID, Revision: cg.Revision,
				Status: event.StatusFinal, Event: ev,
			})
		}
		*out = append(*out, ev)
	}
}

// update converts one grouping-layer update into its event form and
// records the provisional books.
func (em *emitter) update(gu *grouping.GroupUpdate, wm time.Time) event.Update {
	u := event.Update{EventID: gu.ID, Revision: gu.Revision}
	switch gu.Kind {
	case grouping.UpdateSuperseded:
		u.Status = event.StatusSuperseded
		u.SupersededBy = gu.SupersededBy
		em.met.ProvSuperseded.Inc()
		return u
	case grouping.UpdateRevised:
		u.Status = event.StatusRevised
		em.met.ProvRevised.Inc()
	default:
		u.Status = event.StatusProvisional
		em.met.ProvEmitted.Inc()
	}
	em.met.ProvMembers.Observe(float64(len(gu.Members)))
	u.Event = em.builder.BuildMessages(gu.Members)
	u.Event.ID = -1 // the sequential final-stream ID is assigned only at closure
	if u.Status == event.StatusProvisional {
		em.met.ProvLatency.Observe(wm.Sub(u.Event.End).Seconds())
	}
	return u
}
