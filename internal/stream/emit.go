package stream

import (
	"time"

	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/obs"
)

// emitter is the one grouper-output → event step, shared by every engine
// shape: it scores and labels a closed group exactly as the batch path
// would, numbers the final stream, converts provisional-tier updates, keeps
// the emission books and publishes the grouper's. The serial engine calls
// it inline, the sharded core on its merge goroutine — which is why the
// update stream is the serial engine's at any shard count. Not safe for
// concurrent use.
type emitter struct {
	builder *event.Builder
	nextID  int  // next final-stream event ID
	prov    bool // provisional tier on (cfg.Grouping.ProvisionalHorizon > 0)
	// accs holds the assembly state of every identity published and not yet
	// final or superseded, so that a revision folds in only the members it
	// gained (event.Builder.Extend); spare holds emptied ones for reuse. Not
	// part of any checkpoint: a restored engine starts without them and its
	// next publication of each identity builds in full.
	accs    map[uint64]*event.Accumulator
	spare   []*event.Accumulator
	met     Metrics
	grouped bool // met.Grouping holds a handle (setMetrics)
	// pool is the engine's Pending pool, whose tallies complete the book.
	pool *grouping.PendingPool
	// pub is the grouper's book as the handles last saw it; before the first
	// publication, the book the engine was built (zero) or restored with.
	pub grouping.IncStats
}

func (em *emitter) setMetrics(m Metrics) {
	em.met, em.grouped = m, m.Grouping != (IncMetrics{})
}

func newEmitter(cfg Config, pool *grouping.PendingPool) emitter {
	return emitter{
		builder: event.NewBuilder(cfg.Freq, cfg.Labeler),
		prov:    cfg.Grouping.ProvisionalHorizon > 0,
		accs:    make(map[uint64]*event.Accumulator),
		pool:    pool,
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
		var ev event.Event
		if acc := em.accs[cg.ID]; acc != nil {
			ev = em.builder.Extend(acc, cg.Members)
			em.retire(cg.ID, acc)
		} else {
			ev = em.builder.BuildGroup(cg.Members)
		}
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
		if acc := em.accs[gu.ID]; acc != nil {
			em.retire(gu.ID, acc)
		}
		return u
	case grouping.UpdateRevised:
		u.Status = event.StatusRevised
		em.met.ProvRevised.Inc()
	default:
		u.Status = event.StatusProvisional
		em.met.ProvEmitted.Inc()
	}
	em.met.ProvMembers.Observe(float64(len(gu.Members)))
	acc := em.accs[gu.ID]
	if acc == nil {
		acc = em.newAcc()
		em.accs[gu.ID] = acc
	}
	u.Event = em.builder.Extend(acc, gu.Members)
	u.Event.ID = -1 // the sequential final-stream ID is assigned only at closure
	if u.Status == event.StatusProvisional {
		em.met.ProvLatency.Observe(wm.Sub(u.Event.End).Seconds())
	}
	return u
}

// newAcc returns an empty accumulator, a spare one when there is one.
func (em *emitter) newAcc() *event.Accumulator {
	if n := len(em.spare); n > 0 {
		acc := em.spare[n-1]
		em.spare = em.spare[:n-1]
		return acc
	}
	return new(event.Accumulator)
}

// retire drops the accumulator of an identity that went final or was
// superseded: it is emptied (its member lists released) and kept spare.
func (em *emitter) retire(id uint64, acc *event.Accumulator) {
	delete(em.accs, id)
	acc.Reset()
	em.spare = append(em.spare, acc)
}

// IncMetrics are the handles for the grouper's numbers (all nil-safe, so
// the zero value records nothing). The grouping package keeps the numbers
// themselves as plain tallies behind Stats(); Publish is the only code that
// writes these handles.
type IncMetrics struct {
	MergeTemporal   *obs.Counter // group.merges.temporal
	MergeRule       *obs.Counter // group.merges.rule
	MergeCross      *obs.Counter // group.merges.cross
	RuleCandidates  *obs.Counter // group.rule.candidates_scanned
	RulePairs       *obs.Counter // group.rule.pairs_matched
	CrossCandidates *obs.Counter // group.cross.candidates_scanned
	UnresolvedLocs  *obs.Counter // group.rule.unresolved_locations
	OpenMessages    *obs.Gauge   // stream.state.messages
	OpenGroups      *obs.Gauge   // stream.state.groups
	Streams         *obs.Gauge   // stream.state.streams
	StreamEvictions *obs.Counter // stream.state.evictions
	PoolGets        *obs.Counter // stream.pool.pending.gets
	PoolPuts        *obs.Counter // stream.pool.pending.puts
	PoolLive        *obs.Gauge   // stream.pool.pending.live
}

// Publish moves the handles from one reading of the book to a later one:
// each counter advances by how far its tally moved, each gauge shows the
// later level. Every engine shape and the batch digest publish through it,
// starting from the book the engine was built or restored with, so a counter
// reads the work this process did; a restored engine's earlier life is in
// its Stats() and its checkpoints, not in its metrics.
func (m *IncMetrics) Publish(from, to *grouping.IncStats) {
	advance(m.MergeTemporal, uint64(from.TemporalMerges), uint64(to.TemporalMerges))
	advance(m.MergeRule, uint64(from.RuleMerges), uint64(to.RuleMerges))
	advance(m.MergeCross, uint64(from.CrossMerges), uint64(to.CrossMerges))
	advance(m.RuleCandidates, from.RuleCandidates, to.RuleCandidates)
	advance(m.RulePairs, from.RulePairs, to.RulePairs)
	advance(m.CrossCandidates, from.CrossCandidates, to.CrossCandidates)
	advance(m.UnresolvedLocs, from.UnresolvedLocs, to.UnresolvedLocs)
	advance(m.StreamEvictions, uint64(from.Evictions), uint64(to.Evictions))
	advance(m.PoolGets, from.Pool.Gets, to.Pool.Gets)
	advance(m.PoolPuts, from.Pool.Puts, to.Pool.Puts)
	m.OpenMessages.Set(float64(to.OpenMessages))
	m.OpenGroups.Set(float64(to.OpenGroups))
	m.Streams.Set(float64(to.Streams))
	m.PoolLive.Set(float64(to.Pool.Live))
}

// advance adds a tally's movement to its counter. Most tallies stand still
// across most steps, and an atomic add of zero costs what any other does.
func advance(c *obs.Counter, from, to uint64) {
	if to > from {
		c.Add(to - from)
	}
}

// book completes an engine's Stats with its pool's tallies.
func (em *emitter) book(st grouping.IncStats) grouping.IncStats {
	st.Pool = em.pool.Stats()
	return st
}

// publish brings the handles up to the book as read now. With no handle
// installed it reads nothing and leaves pub alone, so handles installed late
// start from the engine's beginning, not from their installation.
func (em *emitter) publish(read func() grouping.IncStats) {
	if !em.grouped {
		return
	}
	now := em.book(read())
	em.met.Grouping.Publish(&em.pub, &now)
	em.pub = now
}
