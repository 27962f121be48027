// Provisional (two-tier) emission for the incremental grouper (PR 9).
//
// When IncrementalConfig.ProvisionalHorizon is positive, the Merger gives
// every group a stable identity at birth and publishes GroupUpdates on top
// of the final ClosedGroup stream:
//
//   - provisional (revision 0): the group outlived the provisional horizon
//     without closing — its first publication;
//   - revised: a published group gained members (growth or a merge it won)
//     and outlived the horizon again since the change;
//   - superseded: a merge absorbed a published group into another; the
//     loser is retired pointing at the winner's identity.
//
// Closure itself stays untouched: ClosedGroup gains the identity and the
// final revision number, and a group that closes before ever publishing is
// published (revision 0) in the same Apply, so every final event has a
// provisional record — the engine-level accounting invariant
// (provisional emitted == finalized + superseded) holds exactly.
//
// Scheduling is a FIFO of due entries rather than a heap: every entry is
// armed at due = watermark + horizon and the watermark never regresses, so
// appends arrive in nondecreasing due order and popping the front is the
// earliest-due scan. An entry pins one member Pending (with a reference, so
// the pool cannot recycle it) and remembers the group identity it armed
// for; at pop time the member's group pointer leads to the live root, and a
// mismatched identity or a closed flag means the group merged away or
// closed in the meantime — the entry is stale and skipped. Identities are
// never reused, so the check is exact even though pooled records recycle
// their inline group backing.
//
// Everything here runs on the Merger's goroutine (the merge stage of the
// sharded engine replays the serial operation sequence), so the update
// stream is byte-identical at any worker count — the same argument that
// makes the final stream deterministic.
package grouping

import "time"

// UpdateKind distinguishes the provisional-tier publications.
type UpdateKind uint8

const (
	// UpdateProvisional is a group's first publication (revision 0).
	UpdateProvisional UpdateKind = iota
	// UpdateRevised republishes a grown group under the same identity.
	UpdateRevised
	// UpdateSuperseded retires a published identity absorbed by a merge.
	UpdateSuperseded
)

// GroupUpdate is one provisional-tier publication. Members is a copy in
// ascending Seq order (the order event scoring depends on), empty for
// UpdateSuperseded; like the update itself it is scratch the Merger takes
// back at its next Apply or Drain. Last is the group's newest member time
// at publication.
type GroupUpdate struct {
	ID           uint64
	Revision     int
	Kind         UpdateKind
	SupersededBy uint64 // set only for UpdateSuperseded
	Members      []Message
	Last         time.Time
}

// provEntry is one armed due-time: when the watermark passes due, the group
// reached through p (alive thanks to the entry's reference) publishes —
// unless its identity no longer matches gid, which means the entry went
// stale.
type provEntry struct {
	p   *Pending
	gid uint64
	due time.Time
}

// provQueue is a FIFO of provEntry in nondecreasing due order, amortized
// O(1) pop via occasional compaction (same scheme as tplBucket).
type provQueue struct {
	buf  []provEntry
	head int
}

func (q *provQueue) push(e provEntry) { q.buf = append(q.buf, e) }

func (q *provQueue) empty() bool { return q.head >= len(q.buf) }

func (q *provQueue) front() *provEntry { return &q.buf[q.head] }

func (q *provQueue) pop() provEntry {
	e := q.buf[q.head]
	q.buf[q.head] = provEntry{}
	q.head++
	if q.head >= 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return e
}

// live returns the queued entries front first (capture only).
func (q *provQueue) live() []provEntry { return q.buf[q.head:] }

// len returns the number of queued entries.
func (q *provQueue) len() int { return len(q.buf) - q.head }

// arm schedules g to publish once the watermark passes now + horizon. The
// entry holds a reference to one member; any member resolves to the live
// root through its group pointer.
func (mg *Merger) armProv(g *incGroup) {
	p := g.members[0]
	p.ref() // due-queue reference, released at pop (or Drain)
	mg.provQueue.push(provEntry{p: p, gid: g.id, due: mg.progress.last.Add(mg.provHorizon)})
}

// armDirty marks a published group changed and schedules its revision.
// At most one dirty arm is outstanding per group: the flag only transitions
// clean->dirty here and dirty->clean at pop.
func (mg *Merger) armDirty(g *incGroup) {
	if g.dirty {
		return
	}
	g.dirty = true
	mg.armProv(g)
}

// publish snapshots g's membership into the update buffer. For
// UpdateProvisional it stamps the group published; for UpdateRevised the
// caller has already advanced g.rev and cleared the dirty flag. The member
// copy lands in a recycled buffer, the same way a closed group's does.
func (mg *Merger) publish(g *incGroup, kind UpdateKind) {
	if kind == UpdateProvisional {
		g.pub = true
		g.dirty = false
	}
	mg.updBuf = append(mg.updBuf, GroupUpdate{
		ID: g.id, Revision: g.rev, Kind: kind, Members: mg.memberMessages(g), Last: g.last,
	})
}

// popDue publishes every group whose due time the watermark has passed.
// Runs inside Apply after the merge steps and before closure, so a revision
// always precedes the final record it anticipates.
func (mg *Merger) popDue() {
	for !mg.provQueue.empty() && mg.progress.last.After(mg.provQueue.front().due) {
		e := mg.provQueue.pop()
		g := e.p.g
		e.p.unref()
		if g == nil || g.id != e.gid || g.closed {
			continue // merged away, closed, or the record was recycled
		}
		if !g.pub {
			mg.publish(g, UpdateProvisional)
		} else if g.dirty {
			g.rev++
			g.dirty = false
			mg.publish(g, UpdateRevised)
		}
	}
}

// noteMerge threads identity semantics through a union-find merge: ga won
// (it keeps its identity and absorbed gb's members already), gb lost. A
// published loser is retired with a superseded record — announcing the
// winner first if it was never published, so consumers never see a
// reference to an unknown identity. A published winner whose membership
// just changed re-arms for a revision.
func (mg *Merger) noteMerge(ga, gb *incGroup) {
	if gb.pub {
		wasPub := ga.pub
		if !wasPub {
			mg.publish(ga, UpdateProvisional) // post-merge snapshot includes gb's members
		}
		gb.rev++
		mg.updBuf = append(mg.updBuf, GroupUpdate{
			ID: gb.id, Revision: gb.rev, Kind: UpdateSuperseded,
			SupersededBy: ga.id, Last: gb.last,
		})
		if wasPub {
			mg.armDirty(ga)
		}
		return
	}
	if ga.pub {
		mg.armDirty(ga)
	}
}

// TakeUpdates returns the provisional-tier updates generated by the last
// Apply or Drain, oldest first. Like the closed-group slice, the returned
// slice is scratch valid until the next Apply or Drain — and so is every
// Members slice inside it: the next step takes those buffers back and
// overwrites them, so a caller that keeps an update copies the messages
// out first. Always empty when the provisional horizon is off.
func (mg *Merger) TakeUpdates() []GroupUpdate { return mg.updBuf }

// drainProvQueue discards every armed entry (releasing its reference);
// Drain closes all groups, so nothing left in the queue could ever fire.
func (mg *Merger) drainProvQueue() {
	for !mg.provQueue.empty() {
		mg.provQueue.pop().p.unref()
	}
}
