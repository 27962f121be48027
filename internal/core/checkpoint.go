// Streamer checkpointing (PR 6): Snapshot captures everything the
// streaming pipeline would lose in a crash — the reorder buffer and its
// high-water mark, the sequence counters, the engine's grouping state (whose
// progress is also the late-arrival frontier), and any
// emitted-but-uncollected events — inside the versioned envelope of
// internal/checkpoint; RestoreStreamer rebuilds a streamer that continues
// the run with byte-identical output and exactly-once event delivery.
//
// Excluded, by the package-wide rule: the run's shape (engine, provisional
// horizon, reorder options) is the restore call's own StreamerOptions;
// metrics re-instrument; the augmentation match cache rebuilds as a plain
// cache.
package core

import (
	"fmt"

	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/event"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
)

// bufferedMsg is one reorder-buffer entry, in canonical heap-pop order.
type bufferedMsg struct {
	Index  uint64 `json:"index"`
	TimeNs int64  `json:"time_ns"`
	Router string `json:"router"`
	Code   string `json:"code"`
	Detail string `json:"detail"`
	Order  uint64 `json:"order"`
}

// streamerState is the Snapshot payload. The released frontier is the
// engine's progress, stored once inside Engine; version-1 snapshots also
// carried a copy here ("released", "frontier_ns"), which restore ignores.
type streamerState struct {
	Pushed    uint64              `json:"pushed"`
	Arrivals  uint64              `json:"arrivals"`
	Seq       int                 `json:"seq"`
	Started   bool                `json:"started"`
	MaxSeenNs int64               `json:"max_seen_ns"`
	Buffer    []bufferedMsg       `json:"buffer"`
	Engine    *stream.EngineState `json:"engine,omitempty"` // nil: engine never created
	Carry     []checkpoint.Event  `json:"carry"`
	// CarryUpdates are tier-tagged updates emitted but undelivered at the
	// snapshot (PR 9); absent entirely when the provisional tier is off,
	// so final-only snapshots are byte-identical to pre-PR 9 ones.
	CarryUpdates []checkpoint.Update `json:"carry_updates,omitempty"`
}

// encodeEvent and decodeEvent bridge event.Event and its serialized form
// (the codec struct lives below the event package in the import graph).
func encodeEvent(ev *event.Event) checkpoint.Event {
	return checkpoint.Event{
		ID:          ev.ID,
		StartNs:     checkpoint.TimeNs(ev.Start),
		EndNs:       checkpoint.TimeNs(ev.End),
		Routers:     ev.Routers,
		Locations:   ev.Locations,
		Templates:   ev.Templates,
		MessageSeqs: ev.MessageSeqs,
		RawIndexes:  ev.RawIndexes,
		Label:       ev.Label,
		Score:       ev.Score,
	}
}

func decodeEvent(ce *checkpoint.Event) event.Event {
	return event.Event{
		ID:          ce.ID,
		Start:       checkpoint.NsTime(ce.StartNs),
		End:         checkpoint.NsTime(ce.EndNs),
		Routers:     ce.Routers,
		Locations:   ce.Locations,
		Templates:   ce.Templates,
		MessageSeqs: ce.MessageSeqs,
		RawIndexes:  ce.RawIndexes,
		Label:       ce.Label,
		Score:       ce.Score,
	}
}

// encodeUpdate and decodeUpdate are the same bridge for tier-tagged
// updates; a superseded record's absent snapshot stays absent.
func encodeUpdate(u *event.Update) checkpoint.Update {
	cu := checkpoint.Update{
		EventID:      u.EventID,
		Revision:     u.Revision,
		Status:       u.Status.String(),
		SupersededBy: u.SupersededBy,
	}
	if u.Status != event.StatusSuperseded {
		ce := encodeEvent(&u.Event)
		cu.Event = &ce
	}
	return cu
}

func decodeUpdate(cu *checkpoint.Update) (event.Update, error) {
	st, ok := event.StatusFromString(cu.Status)
	if !ok {
		return event.Update{}, fmt.Errorf("core: restore: unknown update status %q: %w", cu.Status, checkpoint.ErrCorrupt)
	}
	u := event.Update{
		EventID:      cu.EventID,
		Revision:     cu.Revision,
		Status:       st,
		SupersededBy: cu.SupersededBy,
	}
	if cu.Event != nil {
		u.Event = decodeEvent(cu.Event)
	}
	return u, nil
}

// Snapshot serializes the streamer's complete streaming state, keyed by
// the engine's low watermark. In sharded mode it synchronizes first (the
// in-flight batch is applied, not serialized mid-air), so the snapshot is
// a clean cut: a restored streamer fed the remaining messages produces
// exactly the events the uninterrupted run would have, each exactly once.
// The live streamer remains usable afterwards.
func (s *Streamer) Snapshot() ([]byte, error) {
	st := streamerState{Seq: s.seq, Carry: []checkpoint.Event{}}
	s.fe.capture(&st)
	for i := range s.carry {
		st.Carry = append(st.Carry, encodeEvent(&s.carry[i]))
	}
	for i := range s.carryUpd {
		st.CarryUpdates = append(st.CarryUpdates, encodeUpdate(&s.carryUpd[i]))
	}
	var watermarkNs int64
	if s.eng != nil {
		es, pending, pendingUpd, err := s.eng.State()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot: %w", err)
		}
		st.Engine = &es
		watermarkNs = es.Inc.Merger.WatermarkNs
		for i := range pending {
			st.Carry = append(st.Carry, encodeEvent(&pending[i]))
		}
		for i := range pendingUpd {
			st.CarryUpdates = append(st.CarryUpdates, encodeUpdate(&pendingUpd[i]))
		}
	}
	return checkpoint.Encode(watermarkNs, st)
}

// RestoreStreamer rebuilds a streamer over d from a Snapshot. opts are the
// restored run's own tuning (they need not match the snapshotted run's;
// worker count may differ — the engine reshards). The restored streamer
// resumes mid-stream: events the snapshotted run had closed but not
// delivered surface on the next Push or Flush, and every event emits
// exactly once across the restart. Every error for the snapshot's bytes
// wraps checkpoint.ErrUnsupportedVersion or checkpoint.ErrCorrupt.
func RestoreStreamer(d *Digester, snap []byte, opts StreamerOptions) (*Streamer, error) {
	var st streamerState
	if _, err := checkpoint.Decode(snap, &st); err != nil {
		return nil, err
	}
	s := NewStreamerWith(d, opts)
	s.seq = st.Seq
	s.fe.restore(&st)
	for i := range st.Carry {
		s.carry = append(s.carry, decodeEvent(&st.Carry[i]))
	}
	for i := range st.CarryUpdates {
		u, err := decodeUpdate(&st.CarryUpdates[i])
		if err != nil {
			return nil, err
		}
		s.carryUpd = append(s.carryUpd, u)
	}
	if st.Engine != nil {
		// The snapshot's own engine shape and shard count need not match
		// opts: any engine restores any EngineState.
		eng, err := s.engine()
		if err != nil {
			return nil, err
		}
		if err := eng.Restore(*st.Engine); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// capture writes the front end's part of a snapshot: its arrival record and
// the buffer in release order (how the buffer splits between run and heap,
// and the heap's slice layout, depend on its arrival history; the release
// order does not).
func (f *frontEnd) capture(st *streamerState) {
	st.Pushed = f.pushed
	st.Arrivals = f.arrivals
	st.Started = f.started
	st.MaxSeenNs = checkpoint.TimeNs(f.maxSeen)
	st.Buffer = make([]bufferedMsg, 0, f.len())
	for _, it := range f.inOrder() {
		st.Buffer = append(st.Buffer, bufferedMsg{
			Index:  it.m.Index,
			TimeNs: checkpoint.TimeNs(it.m.Time),
			Router: it.m.Router,
			Code:   it.m.Code,
			Detail: it.m.Detail,
			Order:  it.order,
		})
	}
}

// restore is capture's inverse, into a front end with no arrivals yet. A
// snapshot's buffer is in release order, so it all lands in the run.
func (f *frontEnd) restore(st *streamerState) {
	f.pushed = st.Pushed
	f.arrivals = st.Arrivals
	f.started = st.Started
	f.maxSeen = checkpoint.NsTime(st.MaxSeenNs)
	for _, bm := range st.Buffer {
		f.buffer(bufItem{
			m: syslogmsg.Message{
				Index:  bm.Index,
				Time:   checkpoint.NsTime(bm.TimeNs),
				Router: bm.Router,
				Code:   bm.Code,
				Detail: bm.Detail,
			},
			order: bm.Order,
		})
	}
}
