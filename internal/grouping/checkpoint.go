// Checkpoint capture and restore for the incremental grouper (PR 6).
//
// The serialized form flattens the pointer-linked live state into index
// space: every reachable Pending gets one dense index, assigned in a
// deterministic traversal order (open groups in closure-list order, then
// the cross-router ring, then each local's model predecessors in LRU
// order, then the rule windows sorted by router), and every other
// structure refers to messages by that index. Restoring replays the
// traversal, so capture(restore(state)) is byte-identical — the golden
// round-trip tests in core pin this.
//
// Two invariants of the live engine make the encoding small:
//
//   - A pending reachable only through a model's last-message pointer or a
//     stale rule-window slot may belong to an already-closed group. Closed
//     groups keep no member list and no identity that any future decision
//     reads (ring expiry runs before any scan can touch such a pending),
//     so those pendings restore as closed singletons instead of carrying
//     the original group partition.
//   - Cross-ring entries are always members of open groups (the cross
//     window is within the closure horizon), so group identity for them is
//     fully recovered from the open-group member lists.
//
// What is NOT serialized: the grouping configuration and knowledge
// (windows, stage, dictionary, rule base; supplied again at restore via the
// Shardable) and MaxStreams and worker counts (runtime knobs).
package grouping

import (
	"fmt"
	"sort"

	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/temporal"
)

// PendingState is one in-flight message. Group membership is not stored
// here; GroupState member lists carry it.
type PendingState struct {
	Seq      int                `json:"seq"`
	TimeNs   int64              `json:"time_ns"`
	Router   string             `json:"router"`
	Template int                `json:"template"`
	Loc      locdict.Location   `json:"loc"`
	AllLocs  []locdict.Location `json:"all_locs"`
	Peers    []string           `json:"peers"`
	Raw      uint64             `json:"raw"`
}

// GroupState is one open group: member indexes plus the closure timestamp.
// The order of Members is unspecified — join order until the group's first
// provisional publication sorts the live list by Seq — and restore yields
// the same streams from any order (TestCheckpointMemberOrderUnspecified). The two-tier emission fields (PR 9) ride along:
// ID is the stable event identity (0 in snapshots from older builds —
// restore assigns fresh ones), Rev/Pub/Dirty are the revision cursor that
// makes provisional delivery exactly-once across a restore.
type GroupState struct {
	Members []int  `json:"members"`
	LastNs  int64  `json:"last_ns"`
	ID      uint64 `json:"id,omitempty"`
	Rev     int    `json:"rev,omitempty"`
	Pub     bool   `json:"pub,omitempty"`
	Dirty   bool   `json:"dirty,omitempty"`
}

// ProvEntryState is one armed provisional due-time: the open group it
// watches (an index into MergerState.Groups — stale entries are resolved
// and dropped at capture) and when it fires.
type ProvEntryState struct {
	Group int   `json:"group"`
	DueNs int64 `json:"due_ns"`
}

// ActiveRuleState is one (pair, tally) entry of the cumulative rule-merge
// count, flattened from the map in ascending (X, Y) order.
type ActiveRuleState struct {
	X     int `json:"x"`
	Y     int `json:"y"`
	Count int `json:"count"`
}

// MergerState is the global half: progress, partition, closure list, cross
// ring, and the merger's book. Started and WatermarkNs are the engine's
// Progress, the one record of it a snapshot holds.
type MergerState struct {
	Started     bool              `json:"started"`
	WatermarkNs int64             `json:"watermark_ns"`
	Groups      []GroupState      `json:"groups"` // closure-list order, oldest first
	CrossWin    []int             `json:"cross_win"`
	Active      []ActiveRuleState `json:"active"`
	// MergeStats is the merger's book, its tallies under their own keys
	// (CrossCandidates is absent in snapshots from builds before the
	// template index and restores as 0). The live levels are not written,
	// and a restore ignores them (an in-memory state carries them): it
	// recounts them from Groups.
	MergeStats
	// NextGroupID and ProvQueue are the two-tier emission cursors (PR 9);
	// absent in snapshots from older builds (restore assigns fresh
	// identities and re-arms open groups at the restored watermark).
	NextGroupID uint64           `json:"next_group_id,omitempty"`
	ProvQueue   []ProvEntryState `json:"prov_queue,omitempty"`
}

// ModelState is one live temporal stream: key, EWMA state, and the index
// of its previous message (-1 when none, e.g. after a drain).
type ModelState struct {
	Template int                   `json:"template"`
	LocKey   string                `json:"loc_key"`
	Router   string                `json:"router"`
	Temporal temporal.GrouperState `json:"temporal"`
	Last     int                   `json:"last"`
}

// WindowState is one router's rule window, front first.
type WindowState struct {
	Router  string `json:"router"`
	Members []int  `json:"members"`
}

// LocalState is one RouterLocal: models in least-recently-observed order
// (head first, so restoring in sequence rebuilds the eviction list) and
// rule windows sorted by router. It holds no progress: a local needs none,
// and snapshots from builds that kept a copy here restore without it.
type LocalState struct {
	// LocalStats is the local's book, its tallies under their own keys
	// (the rule-pass and unresolved-location tallies are absent in
	// snapshots from builds before them and restore as 0). Streams is not
	// written, and a restore ignores it: it is len(Models).
	LocalStats
	Models  []ModelState  `json:"models"`
	Windows []WindowState `json:"windows"`
}

// IncState is the complete incremental-grouper snapshot: the shared
// pending pool, the merger, and one LocalState per shard.
type IncState struct {
	Pendings []PendingState `json:"pendings"`
	Merger   MergerState    `json:"merger"`
	Locals   []LocalState   `json:"locals"`
}

// pendingIndexer assigns dense indexes to pendings in traversal order.
type pendingIndexer struct {
	idx  map[*Pending]int
	pool []PendingState
}

func (x *pendingIndexer) of(p *Pending) int {
	if i, ok := x.idx[p]; ok {
		return i
	}
	i := len(x.pool)
	x.idx[p] = i
	x.pool = append(x.pool, PendingState{
		Seq:      p.msg.Seq,
		TimeNs:   checkpoint.TimeNs(p.msg.Time),
		Router:   p.msg.Router,
		Template: p.msg.Template,
		Loc:      p.msg.Loc,
		AllLocs:  p.msg.AllLocs,
		Peers:    p.msg.Peers,
		Raw:      p.msg.Raw,
	})
	return i
}

// captureMerger flattens the global half: open groups in closure-list
// order, then the cross ring, then the tallies.
func captureMerger(x *pendingIndexer, mg *Merger) MergerState {
	ms := MergerState{
		Started:     mg.progress.started,
		WatermarkNs: checkpoint.TimeNs(mg.progress.last),
		Groups:      []GroupState{},
		CrossWin:    []int{},
		Active:      []ActiveRuleState{},
		MergeStats:  mg.st,
		NextGroupID: mg.nextGroupID,
	}
	gidx := make(map[uint64]int)
	for g := mg.oHead; g != nil; g = g.next {
		gs := GroupState{
			Members: make([]int, len(g.members)),
			LastNs:  checkpoint.TimeNs(g.last),
			ID:      g.id, Rev: g.rev, Pub: g.pub, Dirty: g.dirty,
		}
		for i, m := range g.members {
			gs.Members[i] = x.of(m)
		}
		gidx[g.id] = len(ms.Groups)
		ms.Groups = append(ms.Groups, gs)
	}
	// Live due entries, front first. Stale entries (the group merged away,
	// closed, or its record was recycled under a new identity) resolve to
	// nothing and are dropped — the pop path would skip them anyway.
	for _, e := range mg.provQueue.live() {
		g := e.p.g
		if g == nil || g.id != e.gid || g.closed {
			continue
		}
		ms.ProvQueue = append(ms.ProvQueue, ProvEntryState{
			Group: gidx[g.id], DueNs: checkpoint.TimeNs(e.due),
		})
	}
	for i := 0; i < mg.crossWin.n; i++ {
		ms.CrossWin = append(ms.CrossWin, x.of(mg.crossWin.at(i)))
	}
	pairs := make([]rules.PairKey, 0, len(mg.active))
	for k := range mg.active {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].X != pairs[j].X {
			return pairs[i].X < pairs[j].X
		}
		return pairs[i].Y < pairs[j].Y
	})
	for _, k := range pairs {
		ms.Active = append(ms.Active, ActiveRuleState{X: k.X, Y: k.Y, Count: mg.active[k]})
	}
	return ms
}

// captureLocal flattens one RouterLocal: models in LRU order, windows
// sorted by router.
func captureLocal(x *pendingIndexer, rl *RouterLocal) LocalState {
	ls := LocalState{
		LocalStats: rl.tally,
		Models:     []ModelState{},
		Windows:    []WindowState{},
	}
	for md := rl.mHead; md != nil; md = md.next {
		// The live key packs a location ID private to this local; the
		// snapshot keeps the canonical Key() string, so the format is
		// unchanged from older builds. ParseKey inverts it on restore and
		// the restoring local resolves its own ID.
		ms := ModelState{
			Template: md.template,
			LocKey:   md.loc.Key(),
			Router:   md.router,
			Temporal: md.tg.State(),
			Last:     -1,
		}
		if md.last != nil {
			ms.Last = x.of(md.last)
		}
		ls.Models = append(ls.Models, ms)
	}
	routers := make([]string, 0, len(rl.routerWin))
	for r := range rl.routerWin {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	for _, r := range routers {
		rw := rl.routerWin[r]
		ws := WindowState{Router: r, Members: make([]int, rw.n)}
		for i := 0; i < rw.n; i++ {
			ws.Members[i] = x.of(rw.at(i))
		}
		ls.Windows = append(ls.Windows, ws)
	}
	return ls
}

// restoreProv rebuilds the two-tier emission cursors: group identities, the
// identity counter, and the armed due queue. Snapshots from older builds
// carry no identities (ID 0 everywhere) — fresh ones are assigned in
// closure-list order; and when the restoring engine runs the provisional
// tier, any unpublished or dirty group left without an armed entry (an old
// snapshot, or one taken with the tier off) is re-armed at the restored
// watermark, so it still publishes instead of staying silent until close.
func restoreProv(mg *Merger, ms MergerState, groups []*incGroup) error {
	next := ms.NextGroupID
	if next == 0 {
		next = 1
	}
	for _, g := range groups {
		if g.id == 0 {
			g.id = next
			next++
		} else if g.id >= next {
			next = g.id + 1
		}
	}
	mg.nextGroupID = next
	armed := make(map[*incGroup]bool)
	if mg.provHorizon > 0 {
		for qi, es := range ms.ProvQueue {
			if es.Group < 0 || es.Group >= len(groups) {
				return corrupt("prov entry %d group %d out of range [0, %d)", qi, es.Group, len(groups))
			}
			g := groups[es.Group]
			p := g.members[0]
			p.ref() // due-queue reference
			mg.provQueue.push(provEntry{p: p, gid: g.id, due: checkpoint.NsTime(es.DueNs)})
			armed[g] = true
		}
		for _, g := range groups {
			if !armed[g] && (!g.pub || g.dirty) {
				mg.armProv(g)
			}
		}
	}
	return nil
}

// RestoreParts rebuilds the two halves from a snapshot. workers is the
// number of RouterLocals wanted; localMax caps each one's model table
// (<= 0: the Shardable bound). When the snapshot's shard count matches
// workers, every local restores exactly (bounds, eviction order, per-shard
// tallies — byte-stable round trip). Otherwise the models and windows
// are resharded through shardFor (router → shard; nil is allowed only for
// workers == 1): outputs stay identical as long as the model tables remain
// within bounds — the LRU interleaving is the one thing a reshard cannot
// reconstruct, exactly the approximation sharding itself already makes.
func (s *Shardable) RestoreParts(st IncState, workers, localMax int, shardFor func(string) int) ([]*RouterLocal, *Merger, error) {
	if workers < 1 {
		return nil, nil, fmt.Errorf("grouping: restore needs >= 1 worker, got %d", workers)
	}
	if shardFor == nil {
		if workers > 1 {
			return nil, nil, fmt.Errorf("grouping: restore across %d workers needs a shard function", workers)
		}
		shardFor = func(string) int { return 0 }
	}

	// Materialize the pendings. NewPending records are GC-managed (no pool
	// owner): checkpoint state is pool-independent, so a restored engine
	// simply refills its pool with fresh records as these retire — no
	// record crosses a restore. Each starts with one materialization
	// reference; the incorporation passes below add the structural
	// references the live engine would hold (group membership, model
	// last-message, ring slots), and the final loop drops the
	// materialization reference, leaving exactly the live counts.
	ps, err := materializePendings(st.Pendings)
	if err != nil {
		return nil, nil, err
	}
	at := indexAccessor(ps)

	// Merger: groups in closure-list order, cross ring, tallies.
	mg := s.NewMerger()
	mg.progress = Progress{started: st.Merger.Started, last: checkpoint.NsTime(st.Merger.WatermarkNs)}
	mg.st = st.Merger.MergeStats
	mg.st.OpenMessages, mg.st.OpenGroups = 0, 0 // levels, not tallies: recounted below
	groups := make([]*incGroup, len(st.Merger.Groups))
	for gi, gs := range st.Merger.Groups {
		if len(gs.Members) == 0 {
			return nil, nil, corrupt("group %d has no members", gi)
		}
		first, err := at(gs.Members[0])
		if err != nil {
			return nil, nil, err
		}
		g := &first.grp
		if len(gs.Members) <= len(g.inline) {
			g.members = g.inline[:0]
		} else {
			g.members = make([]*Pending, 0, len(gs.Members))
		}
		for _, mi := range gs.Members {
			p, err := at(mi)
			if err != nil {
				return nil, nil, err
			}
			if p.g != nil {
				return nil, nil, corrupt("pending %d in more than one group", mi)
			}
			p.g = g
			p.ref() // group membership reference
			g.members = append(g.members, p)
		}
		g.last = checkpoint.NsTime(gs.LastNs)
		g.id, g.rev, g.pub, g.dirty = gs.ID, gs.Rev, gs.Pub, gs.Dirty
		groups[gi] = g
		mg.pushOpen(g)
		mg.st.OpenGroups++
		mg.st.OpenMessages += len(g.members)
	}
	if err := restoreProv(mg, st.Merger, groups); err != nil {
		return nil, nil, err
	}
	for _, ci := range st.Merger.CrossWin {
		p, err := at(ci)
		if err != nil {
			return nil, nil, err
		}
		mg.crossWin.push(p, 0)
	}
	for _, a := range st.Merger.Active {
		mg.active[rules.PairKey{X: a.X, Y: a.Y}] = a.Count
	}

	// Pendings outside every open group were members of already-closed
	// groups; a closed singleton is behaviorally identical (see the file
	// comment) and needs no shared identity.
	for _, p := range ps {
		if p.g == nil {
			p.grp.closed = true
			p.g = &p.grp
		}
	}

	// Locals. Exact restore when the shard count matches; reshard by
	// router otherwise.
	locals := make([]*RouterLocal, workers)
	for i := range locals {
		locals[i] = s.NewLocal(localMax)
	}
	exact := len(st.Locals) == workers
	targetFor := func(li int, router string) (*RouterLocal, error) {
		if exact {
			return locals[li], nil
		}
		sh := shardFor(router)
		if sh < 0 || sh >= workers {
			return nil, fmt.Errorf("grouping: restore: shard %d for router %q out of range", sh, router)
		}
		return locals[sh], nil
	}
	for li, lst := range st.Locals {
		for _, ms := range lst.Models {
			target, err := targetFor(li, ms.Router)
			if err != nil {
				return nil, nil, err
			}
			if err := s.restoreModel(target, ms, at); err != nil {
				return nil, nil, err
			}
		}
		for _, ws := range lst.Windows {
			target, err := targetFor(li, ws.Router)
			if err != nil {
				return nil, nil, err
			}
			if err := restoreWindow(target, ws, at); err != nil {
				return nil, nil, err
			}
		}
	}
	for i, lst := range st.Locals {
		// The cumulative tallies restore per local when the shard counts
		// match. Across a reshard the first local carries them all: nothing
		// says which did a past shard's work, and only the sums are read.
		rl := locals[0]
		if exact {
			rl = locals[i]
		}
		rl.tally.add(lst.LocalStats)
	}
	// Incorporation complete: drop the materialization references so every
	// record carries exactly the references the live engine would hold.
	// (Ring pushes above took their own slot references.)
	for _, p := range ps {
		p.unref()
	}
	// An over-full model table (restore with a smaller bound) trims on the
	// next insert; trimming here would skew the eviction counter for exact
	// restores.
	return locals, mg, nil
}

// corrupt is the error of every restore step that finds the snapshot's
// state inconsistent: it wraps checkpoint.ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("grouping: restore: "+format+": %w", append(args, checkpoint.ErrCorrupt)...)
}

// materializePendings rebuilds the in-flight records of a snapshot. Each
// record is GC-managed and starts with one materialization reference (see
// RestoreParts); callers drop it once incorporation is complete. A template
// the windows could not index fails the restore here, before any window is
// built.
func materializePendings(sts []PendingState) ([]*Pending, error) {
	ps := make([]*Pending, len(sts))
	for i, pst := range sts {
		if err := checkTemplate(pst.Template); err != nil {
			return nil, corrupt("pending %d: %w", i, err)
		}
		ps[i] = NewPending(Message{
			Seq:      pst.Seq,
			Time:     checkpoint.NsTime(pst.TimeNs),
			Router:   pst.Router,
			Template: pst.Template,
			Loc:      pst.Loc,
			AllLocs:  pst.AllLocs,
			Peers:    pst.Peers,
			Raw:      pst.Raw,
		})
	}
	return ps, nil
}

// indexAccessor is the bounds-checked snapshot-index → record lookup every
// restore pass shares.
func indexAccessor(ps []*Pending) func(int) (*Pending, error) {
	return func(i int) (*Pending, error) {
		if i < 0 || i >= len(ps) {
			return nil, corrupt("pending index %d out of range [0, %d)", i, len(ps))
		}
		return ps[i], nil
	}
}

// restoreModel rebuilds one temporal stream into rl. Location IDs are
// private to a RouterLocal and never serialized, so the key is packed from
// the ID rl itself resolves the snapshot's location to.
func (s *Shardable) restoreModel(rl *RouterLocal, ms ModelState, at func(int) (*Pending, error)) error {
	loc, err := locdict.ParseKey(ms.Router, ms.LocKey)
	if err != nil {
		return corrupt("%w", err)
	}
	if err := checkTemplate(ms.Template); err != nil {
		return corrupt("model %q: %w", ms.LocKey, err)
	}
	key := packModelKey(ms.Template, rl.resolve(loc).id)
	if rl.models[key] != nil {
		return corrupt("duplicate model %d/%q", ms.Template, ms.LocKey)
	}
	tg, err := temporal.RestoreGrouper(s.cfg.Temporal, ms.Temporal)
	if err != nil {
		return corrupt("model %q: %w", ms.LocKey, err)
	}
	md := &model{key: key, template: ms.Template, loc: loc, router: ms.Router, tg: tg}
	if ms.Last >= 0 {
		p, err := at(ms.Last)
		if err != nil {
			return err
		}
		p.ref() // model last-message reference
		md.last = p
	}
	rl.models[key] = md
	rl.pushModel(md)
	return nil
}

// restoreWindow rebuilds one router's rule window into rl, resolving each
// member's location again: the bucket entries the next rule step compares
// carry this local's IDs, which no snapshot holds. (The window itself may
// exist already, empty — resolving a model's location creates its router's.)
func restoreWindow(rl *RouterLocal, ws WindowState, at func(int) (*Pending, error)) error {
	rw := rl.window(ws.Router)
	if rw.n > 0 {
		return corrupt("duplicate window for router %q", ws.Router)
	}
	for _, wi := range ws.Members {
		p, err := at(wi)
		if err != nil {
			return err
		}
		rw.push(p, rl.resolve(p.msg.Loc).id)
	}
	return nil
}
