// The sharding boundary of the incremental grouper.
//
// Every join decision of the first two passes depends only on one router's
// message stream: temporal streams are keyed by (template, location) and a
// location names its router (locdict.Location.Key starts with the router),
// and the rule window is explicitly per router. Only the cross-router pass
// and the group partition itself need a global view. The incremental
// grouper is therefore split into:
//
//   - RouterLocal: temporal EWMA models and per-router rule windows. Given
//     one router's messages in time order it produces, per message, the
//     set of join predecessors (Joins) — pure decisions, no group state.
//   - Merger: groups, the closure list, the cross-router ring, and the
//     merge tallies. Given every message in global time order together
//     with its Joins, it performs exactly the operation sequence the
//     unsplit serial grouper performed: singleton, temporal merge, rule
//     merges in scan order, cross scan, watermark closure.
//
// Because a RouterLocal never reads group state and a Merger never makes a
// temporal or rule decision, N RouterLocals can run on N goroutines — each
// owning a disjoint subset of routers — feeding one Merger, and the output
// (partition, closure order, everything) is byte-identical to the serial
// composition. A Pending is the in-flight message object shared between the
// two halves: the local half reads only its immutable message, the merger
// owns its group fields, so handing one across goroutines (with the usual
// channel happens-before edges) is race-free.
//
// One approximation survives sharding: the MaxStreams LRU bound on
// temporal models is enforced per RouterLocal, so a sharded engine under
// model-table pressure can evict different streams than the serial engine
// (the serial LRU order interleaves routers). Outputs are identical
// whenever the table stays within bounds — eviction is already a counted,
// observable approximation (see the package comment in incremental.go).
package grouping

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"syslogdigest/internal/locdict"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/temporal"
)

// Pending is one in-flight message: created in global arrival order,
// examined by its router's RouterLocal, grouped by the Merger. The message
// is immutable after creation; the group fields are owned by the Merger.
// refs counts the holders listed in pool.go; a pooled record (owner != nil)
// recycles when the count hits zero.
//
// A Pending carries no resolved identity. The dense location ID a
// RouterLocal resolves a message to (RouterLocal.resolve) is private to
// that local — overflow IDs mean nothing outside it — so it lives where the
// local alone reads it: in the rule window's bucket entries and in the
// temporal model key. The Merger goroutine never sees an ID, and a record
// that crosses a process boundary or a checkpoint has none to lose: the
// restoring local resolves again.
type Pending struct {
	msg Message

	refs  atomic.Int32
	owner *PendingPool // nil: GC-managed (NewPending, checkpoint restore)

	g   *incGroup // current group (Merger-owned)
	grp incGroup  // inline singleton group backing (Merger-owned)
}

// NewPending wraps a message for the shard pipeline. One allocation covers
// the member and its singleton group. The record is GC-managed: it never
// enters a pool, so tests and restore paths may hold it freely.
func NewPending(m Message) *Pending {
	p := &Pending{}
	p.msg = m
	p.refs.Store(1)
	return p
}

// Msg exposes the wrapped message (read-only).
func (p *Pending) Msg() *Message { return &p.msg }

// Joins are one message's router-local join decisions, in the order the
// serial grouper would have applied them.
type Joins struct {
	// Temporal is the same-stream predecessor to join, nil when the EWMA
	// model rejected the interarrival (or the stream has no predecessor).
	Temporal *Pending
	// Rules are the rule-window predecessors whose pair predicate matched,
	// in window scan order. The slice is reused across Step calls.
	Rules []*Pending
}

// Reset clears the joins for reuse.
func (j *Joins) Reset() {
	j.Temporal = nil
	j.Rules = j.Rules[:0]
}

// inlineMembers is the per-Pending inline group capacity: member lists with
// capacity at or below this are inline backings owned by their Pending,
// larger ones are pool-managed heap slices (see Merger.putMemberBuf).
const inlineMembers = 2

// incGroup is one open group on the closure list.
type incGroup struct {
	members    []*Pending
	inline     [inlineMembers]*Pending // backing array for tiny groups, the common case
	last       time.Time               // max member time
	prev, next *incGroup               // closure list, ascending last
	closed     bool

	// Two-tier emission state (PR 9). id is the stable event identity,
	// assigned at birth, never reused — the staleness check of the
	// provisional due queue depends on that. rev counts publications; pub
	// and dirty track whether the group has been announced and whether its
	// membership changed since (see provisional.go).
	id    uint64
	rev   int
	pub   bool
	dirty bool
}

// maxTemplate bounds the template IDs the windows accept: template buckets
// are slices indexed by template+1 (-1 is the unmatched template), so an ID
// outside [-1, maxTemplate] — which no matcher assigns; IDs are dense from 0
// — is refused before it can index or size one.
const maxTemplate = 1 << 20

func checkTemplate(t int) error {
	if t < -1 || t > maxTemplate {
		return fmt.Errorf("grouping: template id %d outside [-1, %d]", t, maxTemplate)
	}
	return nil
}

// modelKey identifies a temporal stream: the template and the RouterLocal's
// resolved location ID packed into one word, so the per-message model
// lookup hashes eight bytes instead of a Location's two strings.
type modelKey uint64

func packModelKey(template int, loc int32) modelKey {
	return modelKey(uint32(template))<<32 | modelKey(uint32(loc))
}

// model is one live temporal stream: its EWMA state, its previous message,
// and its position on the least-recently-observed eviction list. template
// and loc are what key packs, kept for checkpoints (which serialize the
// location's canonical Key() string, so the snapshot format does not know
// about IDs). router is the stream's owner, carried so checkpoint restore
// can reshard models across a different worker count (the location key
// embeds the router, but parsing it back out would couple restore to the
// key format).
type model struct {
	key        modelKey
	template   int
	loc        locdict.Location
	router     string
	tg         *temporal.Grouper
	last       *Pending
	prev, next *model
}

// memberRing is a bounded FIFO of open-window members backed by a
// power-of-two ring buffer: it grows to the configured scan bound once and
// is then reused forever, so steady-state window maintenance allocates
// nothing.
//
// Alongside the ring it maintains a per-template bucket index, a slice
// indexed by template+1: each bucket is the FIFO of *absolute* entry indexes
// (pops + ring offset) of the live entries carrying that template,
// ascending, each with the location ID its pusher resolved (rule windows;
// the cross window has no use for one and stores 0). The ring stays
// authoritative for expiry and the MaxScan cap; the index only accelerates
// candidate lookup. Two invariants keep it exact with O(1) maintenance:
//
//   - push appends the new entry's absolute index to its template's bucket,
//     so each bucket is ascending (entries arrive in ring order);
//   - the ring is a global FIFO, so the entry popFront removes is also the
//     front of its template's bucket — popping that bucket's head keeps
//     every bucket free of stale references, with nothing to invalidate
//     lazily and no stale-entry checks on the read path.
//
// Absolute indexes (monotone, never reused) rather than ring offsets make
// bucket entries immune to the head moving; atAbs converts back with one
// subtraction.
type memberRing struct {
	buf  []*Pending
	head int
	n    int

	pops    uint64      // total popFront count == absolute index of the front entry
	buckets []tplBucket // by template+1, grown to the largest template pushed
}

// bucketEnt is one live window entry as its template's bucket sees it.
type bucketEnt struct {
	abs uint64 // absolute entry index
	loc int32  // the pusher's resolved location ID
}

// tplBucket is one template's FIFO of entries: live view ents[head:],
// amortized-O(1) pop via occasional compaction (at most one entry copied
// per pop).
type tplBucket struct {
	ents []bucketEnt
	head int
}

// bucketSlack is how many popped entries a bucket may carry in front of its
// live view before it compacts: two cache lines. There is a bucket per
// (router, template) seen and most hold an entry or two, so the slack, not
// the live entries, is what the rule pass's working set is made of: on the
// calm benchmark feed 1690 buckets hold 566 live entries, in 0.27 MB of
// slices at this slack and in 1.5 MB at 64, each bucket creeping through
// all of its share between compactions.
const bucketSlack = 8

func (b *tplBucket) pop() {
	b.head++
	if b.head >= bucketSlack && b.head*2 >= len(b.ents) {
		n := copy(b.ents, b.ents[b.head:])
		b.ents = b.ents[:n]
		b.head = 0
	}
}

// live is the bucket of template t, ascending; empty when the ring has
// never held the template.
func (r *memberRing) live(t int) []bucketEnt {
	if uint(t+1) >= uint(len(r.buckets)) {
		return nil
	}
	b := &r.buckets[t+1]
	return b.ents[b.head:]
}

// push appends m, whose template the caller has checked (checkTemplate).
func (r *memberRing) push(m *Pending, loc int32) {
	m.ref() // ring slot reference, released by popFront
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = m
	r.n++
	t := m.msg.Template + 1
	if t >= len(r.buckets) {
		r.buckets = append(r.buckets, make([]tplBucket, t+1-len(r.buckets))...)
	}
	b := &r.buckets[t]
	b.ents = append(b.ents, bucketEnt{abs: r.pops + uint64(r.n-1), loc: loc})
}

func (r *memberRing) grow() {
	size := 8
	if len(r.buf) > 0 {
		size = len(r.buf) * 2
	}
	nb := make([]*Pending, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.at(i)
	}
	r.buf, r.head = nb, 0
}

func (r *memberRing) at(i int) *Pending { return r.buf[(r.head+i)&(len(r.buf)-1)] }
func (r *memberRing) front() *Pending   { return r.at(0) }

// atAbs resolves a bucket's absolute index to its entry.
func (r *memberRing) atAbs(a uint64) *Pending { return r.at(int(a - r.pops)) }

func (r *memberRing) popFront() {
	front := r.buf[r.head]
	t := front.msg.Template
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	r.buckets[t+1].pop() // its front is exactly this entry (global FIFO)
	r.pops++
	front.unref()
}

// popAll empties the ring (releasing every slot reference) while keeping
// its buffer and buckets for reuse.
func (r *memberRing) popAll() {
	for r.n > 0 {
		r.popFront()
	}
}

// Shardable is the validated, immutable knowledge shared by every half of
// a (possibly sharded) incremental grouper and by the batch reference
// (Group): the normalized configuration, the dictionary and rule base the
// predicates read, the closure horizon, and the state bound. Build the
// halves from one Shardable so they agree on configuration.
type Shardable struct {
	cfg         Config
	dict        *locdict.Dictionary
	rb          *rules.RuleBase
	maxStreams  int
	horizon     time.Duration
	provHorizon time.Duration
	pool        *PendingPool
}

// NewShardable validates the grouping knowledge and configuration. dict
// may not be nil; rb may be nil when rule-based grouping is disabled or no
// rules were learned.
func NewShardable(dict *locdict.Dictionary, rb *rules.RuleBase, cfg IncrementalConfig) (*Shardable, error) {
	if dict == nil {
		return nil, fmt.Errorf("grouping: nil dictionary")
	}
	if rb == nil {
		rb = rules.NewRuleBase()
	}
	c, err := cfg.Config.normalize()
	if err != nil {
		return nil, err
	}
	maxStreams := cfg.MaxStreams
	if maxStreams <= 0 {
		maxStreams = DefaultMaxStreams
	}
	horizon := c.Temporal.Smax
	if c.useRules() && c.RuleWindow > horizon {
		horizon = c.RuleWindow
	}
	if c.useCross() && c.CrossWindow > horizon {
		horizon = c.CrossWindow
	}
	provHorizon := cfg.ProvisionalHorizon
	if provHorizon < 0 {
		provHorizon = 0
	}
	return &Shardable{cfg: c, dict: dict, rb: rb, maxStreams: maxStreams, horizon: horizon, provHorizon: provHorizon, pool: newPendingPool()}, nil
}

// Pool is the engine-scoped Pending pool shared by every half built from
// this Shardable.
func (s *Shardable) Pool() *PendingPool { return s.pool }

// MaxStreams is the validated temporal-model bound, for callers splitting
// it across shards.
func (s *Shardable) MaxStreams() int { return s.maxStreams }

// NewLocal builds one router-local half. maxStreams caps its temporal
// model table (<= 0: the Shardable's bound). A sharded engine that splits
// routers across N locals should split the bound as well to keep total
// state bounded.
func (s *Shardable) NewLocal(maxStreams int) *RouterLocal {
	if maxStreams <= 0 {
		maxStreams = s.maxStreams
	}
	return &RouterLocal{
		s:          s,
		maxStreams: maxStreams,
		locs:       make(map[locdict.Location]locEntry),
		models:     make(map[modelKey]*model),
		routerWin:  make(map[string]*memberRing),
		matched:    make([]uint64, (s.cfg.MaxScan+63)/64),
	}
}

// NewMerger builds the global half.
func (s *Shardable) NewMerger() *Merger {
	return &Merger{
		s:           s,
		horizon:     s.horizon,
		provHorizon: s.provHorizon,
		nextGroupID: 1, // 0 means "unassigned" in snapshots
		active:      make(map[rules.PairKey]int),
	}
}

// LocalStats is one RouterLocal's book: the cumulative tallies, which a
// snapshot carries under these JSON keys (LocalState embeds the struct),
// and the live level Streams, which it does not. A new tally is a field
// here, a line in add and in the cluster wire's LocalStats codec, and a
// handle that stream's IncMetrics.Publish advances.
type LocalStats struct {
	Streams   int `json:"-"` // live temporal models, the size of the model table
	Evictions int `json:"evictions"`
	// RuleCandidates counts window entries the rule pass examined
	// (cumulative); RulePairs counts those whose pair predicate matched.
	// With the template index off (the tests' linear reference) candidates
	// equal the whole window per arrival — the ratio between the two modes
	// is the index's win.
	RuleCandidates uint64 `json:"rule_candidates,omitempty"`
	RulePairs      uint64 `json:"rule_pairs,omitempty"`
	// UnresolvedLocs counts messages (cumulative) whose location the
	// dictionary never interned — an unconfigured router, typically. They
	// group exactly as before, through the chain-walking spatial match, but
	// a rising count says the dictionary is missing part of the network.
	UnresolvedLocs uint64 `json:"unresolved_locations,omitempty"`
}

// add sums another local's book into ls, field by field.
func (ls *LocalStats) add(o LocalStats) {
	ls.Streams += o.Streams
	ls.Evictions += o.Evictions
	ls.RuleCandidates += o.RuleCandidates
	ls.RulePairs += o.RulePairs
	ls.UnresolvedLocs += o.UnresolvedLocs
}

// locEntry is what a RouterLocal resolves a message location to, once per
// message: the dense ID the rule and temporal passes compare instead of the
// Location's strings, and the rule window of the location's router.
type locEntry struct {
	// id is the dictionary's interned ID (locdict.Dictionary.LocID) or, for
	// a location the dictionary never interned, a negative overflow ID this
	// RouterLocal assigned. Overflow IDs identify a location (equal IDs,
	// equal locations) and nothing more: matching one against a different
	// ID falls back to SpatialMatchLinear on the two Locations.
	id int32
	rw *memberRing
}

// RouterLocal is the router-local half of the incremental grouper:
// temporal EWMA models and per-router rule windows for a subset of
// routers. Feed it each of its routers' messages in nondecreasing time
// order; it emits join decisions and keeps no group state. Not safe for
// concurrent use (one RouterLocal per shard goroutine).
type RouterLocal struct {
	s          *Shardable
	maxStreams int

	// locs is the one string-hashing lookup a message pays: everything
	// after it in Step runs on the entry's ID and window. It grows with the
	// distinct locations seen, as routerWin does with the routers.
	locs      map[locdict.Location]locEntry
	overflows int32 // overflow IDs handed out; the next one is -1 - overflows

	models       map[modelKey]*model
	mHead, mTail *model

	routerWin map[string]*memberRing

	// tally is the local's book as Stats reports it, except Streams: Stats
	// reads that level off the model table, and nothing reads it here.
	tally LocalStats
	// matched is the rule pass's bitmap over ring offsets, one bit per
	// window entry (a ring holds at most MaxScan at scan time); all zero
	// between steps.
	matched []uint64
}

// Stats snapshots the local state.
func (rl *RouterLocal) Stats() LocalStats {
	st := rl.tally
	st.Streams = len(rl.models)
	return st
}

// resolve maps a message location to its entry, creating it on first sight:
// the dictionary's ID when it interned the location, the next overflow ID
// otherwise, and the rule window of the location's router.
func (rl *RouterLocal) resolve(loc locdict.Location) locEntry {
	if e, ok := rl.locs[loc]; ok {
		return e
	}
	id, ok := rl.s.dict.LocID(loc)
	if !ok {
		rl.overflows++
		id = -rl.overflows
	}
	e := locEntry{id: id, rw: rl.window(loc.Router)}
	rl.locs[loc] = e
	return e
}

// window is the router's rule window, created on first use.
func (rl *RouterLocal) window(router string) *memberRing {
	rw := rl.routerWin[router]
	if rw == nil {
		rw = &memberRing{}
		rl.routerWin[router] = rw
	}
	return rw
}

// Step runs the temporal and rule passes for p, writing the join
// predecessors into js (which is reset first; its backing storage is
// reused). Messages must arrive in nondecreasing time order. Step keeps
// plain tallies for Stats to report; turning them into metrics is the
// streaming engine's job (stream's emitter.publish), not this package's.
func (rl *RouterLocal) Step(p *Pending, js *Joins) error {
	js.Reset()
	if err := checkTemplate(p.msg.Template); err != nil {
		return err
	}
	e := rl.resolve(p.msg.Loc)
	if e.id < 0 {
		rl.tally.UnresolvedLocs++
	}
	if err := rl.temporalStep(p, e.id, js); err != nil {
		return err
	}
	if rl.s.cfg.useRules() {
		rl.ruleStep(p, e, js)
	}
	return nil
}

// DrainWindows clears the rule windows and per-stream predecessors so no
// later message can join anything observed before the drain. The EWMA
// models persist (interarrival knowledge survives a drain), and so do the
// ring buffers and buckets — a drain empties them, releasing every slot
// reference, without reallocating.
func (rl *RouterLocal) DrainWindows() {
	for _, rw := range rl.routerWin {
		rw.popAll()
	}
	for md := rl.mHead; md != nil; md = md.next {
		if md.last != nil {
			md.last.unref()
			md.last = nil
		}
	}
}

// temporalStep runs the stream's EWMA model on the new arrival and records
// a join to the stream's previous message when the model accepts the
// interarrival.
func (rl *RouterLocal) temporalStep(p *Pending, loc int32, js *Joins) error {
	key := packModelKey(p.msg.Template, loc)
	md := rl.models[key]
	if md == nil {
		tg, err := temporal.NewGrouper(rl.s.cfg.Temporal)
		if err != nil {
			return err
		}
		md = &model{key: key, template: p.msg.Template, loc: p.msg.Loc, router: p.msg.Router, tg: tg}
		rl.models[key] = md
		rl.pushModel(md)
		rl.evictModels()
	} else {
		rl.touchModel(md)
	}
	join := md.tg.Observe(p.msg.Time)
	if join && md.last != nil {
		// The join decision needs no reference of its own: the predecessor
		// still holds its group (or in-flight pipeline) reference, and its
		// group cannot close before this decision is applied — the accepted
		// interarrival is < Smax <= horizon (see pool.go).
		js.Temporal = md.last
	}
	p.ref() // model last-message reference, released on overwrite/evict/drain
	if md.last != nil {
		md.last.unref()
	}
	md.last = p
	return nil
}

// ruleStep examines the new arrival against its router's retained window,
// exactly the pair set of the batch pass: predecessors within W whose
// position distance is at most MaxScan.
//
// The default path consults only the window's buckets for the arrival's
// rule partners — a bucket holds one template, so membership settles the
// rule-pair half of the predicate and only the spatial half is left, on
// IDs. A matching candidate sets the bit of its ring offset; walking the set
// bits ascending then visits the matches in ring order, which is the order
// the linear scan meets them in, so the join sequence (and with it every
// order-dependent tally downstream) is byte-identical to it without
// sorting anything. Config.linearScan forces the original full-window scan,
// retained as the tests' differential reference.
func (rl *RouterLocal) ruleStep(p *Pending, e locEntry, js *Joins) {
	rw := e.rw
	if p.msg.Router != p.msg.Loc.Router {
		rw = rl.window(p.msg.Router) // windows are per message router, whatever the location says
	}
	// Time is nondecreasing, so a front entry out of window for this
	// message is out of window for every later one: expire before scanning.
	for rw.n > 0 && p.msg.Time.After(rw.front().msg.Time.Add(rl.s.cfg.RuleWindow)) {
		rw.popFront()
	}
	var cand, matched uint64
	partners := rl.s.rb.Partners(p.msg.Template)
	if rl.s.cfg.linearScan {
		for i := 0; i < rw.n; i++ {
			mi := rw.at(i)
			cand++
			if rl.s.ruleMatch(partners, &mi.msg, &mi.msg, &p.msg) {
				js.Rules = append(js.Rules, mi)
				matched++
			}
		}
	} else {
		words := (rw.n + 63) >> 6
		if words > len(rl.matched) {
			// Only a window restored from a snapshot taken under a larger
			// MaxScan is longer than this configuration's.
			rl.matched = make([]uint64, words)
		}
		bm := rl.matched[:words]
		for _, q := range partners {
			if q == p.msg.Template {
				continue // same-template grouping is the temporal pass's job
			}
			for _, c := range rw.live(q) {
				cand++
				if rl.spatialMatch(rw, c, p, e.id) {
					off := c.abs - rw.pops
					bm[off>>6] |= 1 << (off & 63)
				}
			}
		}
		for w, word := range bm {
			for ; word != 0; word &= word - 1 {
				js.Rules = append(js.Rules, rw.at(w<<6|bits.TrailingZeros64(word)))
				matched++
			}
			bm[w] = 0
		}
	}
	rl.tally.RuleCandidates += cand
	rl.tally.RulePairs += matched
	rw.push(p, e.id)
	if rw.n > rl.s.cfg.MaxScan {
		rw.popFront()
	}
}

// spatialMatch is the spatial half of the rule predicate between window
// entry c of rw and the arrival p resolved to id: equal IDs are equal
// locations, two dictionary IDs take its integer match, and an overflow ID
// on either side takes the chain walk on the two messages' Locations.
func (rl *RouterLocal) spatialMatch(rw *memberRing, c bucketEnt, p *Pending, id int32) bool {
	switch {
	case c.loc == id:
		return true
	case c.loc < 0 || id < 0:
		return rl.s.dict.SpatialMatchLinear(rw.atAbs(c.abs).msg.Loc, p.msg.Loc)
	default:
		return rl.s.dict.SpatialMatchID(c.loc, id)
	}
}

// Model eviction list maintenance (doubly linked, least recently observed
// at the head).

func (rl *RouterLocal) pushModel(md *model) {
	md.prev = rl.mTail
	md.next = nil
	if rl.mTail != nil {
		rl.mTail.next = md
	} else {
		rl.mHead = md
	}
	rl.mTail = md
}

func (rl *RouterLocal) unlinkModel(md *model) {
	if md.prev != nil {
		md.prev.next = md.next
	} else {
		rl.mHead = md.next
	}
	if md.next != nil {
		md.next.prev = md.prev
	} else {
		rl.mTail = md.prev
	}
	md.prev, md.next = nil, nil
}

func (rl *RouterLocal) touchModel(md *model) {
	if rl.mTail == md {
		return
	}
	rl.unlinkModel(md)
	rl.pushModel(md)
}

func (rl *RouterLocal) evictModels() {
	for len(rl.models) > rl.maxStreams {
		old := rl.mHead
		rl.unlinkModel(old)
		delete(rl.models, old.key)
		if old.last != nil {
			old.last.unref()
			old.last = nil
		}
		rl.tally.Evictions++
	}
}

// MergeStats is a Merger's book: the cumulative tallies, which a snapshot
// carries under these JSON keys (MergerState embeds the struct), and the
// live levels OpenMessages and OpenGroups, which it does not (a restore
// recounts them from the open groups).
type MergeStats struct {
	OpenMessages   int `json:"-"` // messages in not-yet-closed groups
	OpenGroups     int `json:"-"`
	TemporalMerges int `json:"temporal_merges"`
	RuleMerges     int `json:"rule_merges"`
	CrossMerges    int `json:"cross_merges"`
	// CrossCandidates counts window entries the cross pass examined
	// (cumulative); the template index shrinks it without changing a match.
	CrossCandidates uint64 `json:"cross_candidates,omitempty"`
}

// Merger is the global half of the incremental grouper: it owns the group
// partition, the closure list, and the cross-router ring. Apply it to
// every message in global nondecreasing time order (the same total order
// the router-local halves saw their subsequences in) and it reproduces the
// serial grouper's partition, closure order, and tallies exactly. Not safe
// for concurrent use (one Merger per merge goroutine).
type Merger struct {
	s       *Shardable
	horizon time.Duration

	progress Progress // the engine's watermark

	crossWin memberRing

	oHead, oTail *incGroup
	active       map[rules.PairKey]int
	st           MergeStats // the merger's book, as Stats reports it

	// Two-tier emission (PR 9; see provisional.go). provHorizon > 0 turns
	// the provisional tier on; nextGroupID hands out birth identities
	// (always assigned — cheap, and it keeps snapshots uniform); provQueue
	// holds the armed due-times; updBuf backs the slice TakeUpdates returns
	// — like closedBuf, valid until the next Apply/Drain, Members included.
	provHorizon time.Duration
	nextGroupID uint64
	provQueue   provQueue
	updBuf      []GroupUpdate

	// Recycling scratch (merge goroutine only). closedBuf backs the slice
	// Apply/Drain return — valid until the next Apply/Drain. memberFree
	// recycles heap-grown group member lists; msgFree recycles the Members
	// buffers of closed groups (handed back through Recycle) and of
	// provisional updates (reclaimed by the next Apply/Drain).
	closedBuf  []ClosedGroup
	memberFree [][]*Pending
	msgFree    [][][]Message // by size class: capacity minMsgBuf << class
}

// memberBuf returns a recycled member slice with capacity >= need (length
// 0). Recycled and fresh buffers always have capacity > len(incGroup.inline)
// so putMemberBuf can tell heap lists from inline backings by capacity.
func (mg *Merger) memberBuf(need int) []*Pending {
	if n := len(mg.memberFree); n > 0 {
		b := mg.memberFree[n-1]
		mg.memberFree = mg.memberFree[:n-1]
		if cap(b) >= need {
			return b
		}
		// Too small: drop it and allocate; sizes stabilize at the high-water
		// mark, so steady state stops allocating.
	}
	c := 4
	for c < need {
		c *= 2
	}
	return make([]*Pending, 0, c)
}

// putMemberBuf recycles a group's member list. Inline backings (capacity
// <= 2) belong to their Pending and are skipped; entries are cleared so a
// pooled buffer pins nothing.
func (mg *Merger) putMemberBuf(b []*Pending) {
	if cap(b) <= inlineMembers {
		return
	}
	b = b[:cap(b)]
	clear(b)
	mg.memberFree = append(mg.memberFree, b[:0])
}

// msgBuf returns a recycled message buffer with capacity >= need (length
// 0). Capacities are powers of two and msgFree keeps one stack per
// capacity, so a large group's buffer is never spent on a small group nor
// dropped for being too small: allocation stops once each size in use has
// as many buffers as one step hands out.
func (mg *Merger) msgBuf(need int) []Message {
	c := msgClass(need)
	if c < len(mg.msgFree) {
		if free := mg.msgFree[c]; len(free) > 0 {
			b := free[len(free)-1]
			mg.msgFree[c] = free[:len(free)-1]
			return b
		}
	}
	return make([]Message, 0, minMsgBuf<<c)
}

// minMsgBuf is the smallest message buffer capacity (size class 0).
const minMsgBuf = 4

// msgClass is the size class whose capacity, minMsgBuf << class, is the
// smallest that holds need.
func msgClass(need int) int {
	return bits.Len(uint(max(need, minMsgBuf)-1)) - bits.Len(minMsgBuf-1)
}

// putMsgBuf takes back a buffer from msgBuf whose contents are dead. Only
// the written prefix is cleared — the rest of a recycled buffer is zero
// already — so a pooled buffer pins nothing.
func (mg *Merger) putMsgBuf(ms []Message) {
	if cap(ms) < minMsgBuf {
		return
	}
	clear(ms)
	// A buffer the Merger did not allocate files under the largest class
	// it can serve.
	c := bits.Len(uint(cap(ms))) - bits.Len(minMsgBuf)
	for len(mg.msgFree) <= c {
		mg.msgFree = append(mg.msgFree, nil)
	}
	mg.msgFree[c] = append(mg.msgFree[c], ms[:0:minMsgBuf<<c])
}

// memberMessages sorts g's members ascending by Seq in place (the order
// event scoring depends on) and copies their messages into a recycled
// buffer. Sorting the pointers keeps the swaps at 8 bytes, and the list is
// already sorted from its previous publication but for what joined since.
// Seqs are unique, so the order is total.
func (mg *Merger) memberMessages(g *incGroup) []Message {
	slices.SortFunc(g.members, func(a, b *Pending) int { return cmp.Compare(a.msg.Seq, b.msg.Seq) })
	msgs := mg.msgBuf(len(g.members))
	for _, m := range g.members {
		msgs = append(msgs, m.msg)
	}
	return msgs
}

// Recycle returns the Members buffers of closed groups the caller has fully
// consumed. Entirely optional: callers that retain ClosedGroups simply
// never call it and the buffers stay theirs. After Recycle the slices must
// not be read again.
func (mg *Merger) Recycle(closed []ClosedGroup) {
	for i := range closed {
		mg.putMsgBuf(closed[i].Members)
		closed[i].Members = nil
	}
}

// reclaimUpdates ends the previous step's provisional updates: their
// Members buffers return to msgFree and the update list empties.
func (mg *Merger) reclaimUpdates() {
	for i := range mg.updBuf {
		mg.putMsgBuf(mg.updBuf[i].Members)
	}
	mg.updBuf = mg.updBuf[:0]
}

// Progress is the engine's watermark: the maximum message time applied so
// far.
func (mg *Merger) Progress() Progress { return mg.progress }

// ActiveRules is the cumulative per-pair rule-merge tally (Figure 12).
// The returned map is a copy: callers may keep or mutate it freely without
// corrupting the engine's internal tally.
func (mg *Merger) ActiveRules() map[rules.PairKey]int {
	out := make(map[rules.PairKey]int, len(mg.active))
	for k, v := range mg.active {
		out[k] = v
	}
	return out
}

// Stats snapshots the merger.
func (mg *Merger) Stats() MergeStats { return mg.st }

// Apply admits one message (global nondecreasing time order required) with
// its router-local join decisions, runs the cross-router pass, and returns
// any groups the advanced watermark closed, oldest first. Apply consumes
// the caller's pipeline reference to p. The returned slice is scratch,
// valid only until the next Apply or Drain: callers that retain closed
// groups must copy the ClosedGroup values out before stepping again, and
// callers that have fully consumed the Members buffers should hand them
// back through Recycle.
func (mg *Merger) Apply(p *Pending, js *Joins) ([]ClosedGroup, error) {
	if err := mg.progress.Check(p.msg.Time); err != nil {
		return nil, err
	}
	if err := checkTemplate(p.msg.Template); err != nil {
		return nil, err
	}
	mg.progress.Advance(p.msg.Time)
	mg.reclaimUpdates()

	g := &p.grp
	g.inline[0] = p
	g.members = g.inline[:1]
	g.last = p.msg.Time
	g.closed = false // recycled records keep their previous life's grp (see pool.put)
	g.id = mg.nextGroupID
	mg.nextGroupID++
	g.rev = 0
	g.pub = false
	g.dirty = false
	p.g = g
	p.ref() // group membership reference, released by closeGroup
	mg.pushOpen(g)
	mg.st.OpenGroups++
	mg.st.OpenMessages++

	if js.Temporal != nil {
		if _, err := mg.merge(js.Temporal, p, &mg.st.TemporalMerges); err != nil {
			return nil, err
		}
	}
	for _, mi := range js.Rules {
		did, err := mg.merge(mi, p, &mg.st.RuleMerges)
		if err != nil {
			return nil, err
		}
		if did {
			mg.active[rulePair(mi.msg.Template, p.msg.Template)]++
		}
	}
	if mg.s.cfg.useCross() {
		if err := mg.crossStep(p); err != nil {
			return nil, err
		}
	}

	if mg.provHorizon > 0 {
		// Arm the newborn only if it survived the joins as its own root —
		// a merged-away singleton rides the winner's existing arms. Then
		// fire everything due before closure, so a revision always precedes
		// the final record it anticipates.
		if p.g == &p.grp {
			mg.armProv(p.g)
		}
		mg.popDue()
	}

	mg.closedBuf = mg.closeReady(mg.closedBuf[:0])
	// Apply owns the caller's pipeline reference; p cannot recycle here —
	// its own group holds a reference and cannot have closed above (its
	// last member time is the current watermark).
	p.unref()
	return mg.closedBuf, nil
}

// Drain closes every open group (oldest first) and empties the
// cross-router window (keeping its buffers). The watermark persists.
// Callers draining a full pipeline must also DrainWindows every
// RouterLocal, or later messages could join members emitted here. As with
// Apply, the returned slice is scratch valid until the next Apply or
// Drain.
func (mg *Merger) Drain() []ClosedGroup {
	mg.reclaimUpdates()
	mg.drainProvQueue()
	mg.closedBuf = mg.closedBuf[:0]
	for mg.oHead != nil {
		mg.closedBuf = append(mg.closedBuf, mg.closeGroup(mg.oHead))
	}
	mg.crossWin.popAll()
	return mg.closedBuf
}

// crossStep examines the new arrival against the global retained window
// within the near-simultaneity bound. crossPair requires equal templates,
// so the default path walks only the arrival's own template bucket — which
// is already in ascending ring order, preserving the linear scan's merge
// sequence exactly. Config.linearScan forces the full-window reference
// scan.
func (mg *Merger) crossStep(p *Pending) error {
	cw := &mg.crossWin
	for cw.n > 0 && p.msg.Time.After(cw.front().msg.Time.Add(mg.s.cfg.CrossWindow)) {
		cw.popFront()
	}
	var cand uint64
	if mg.s.cfg.linearScan {
		for i := 0; i < cw.n; i++ {
			mi := cw.at(i)
			cand++
			if err := mg.crossExamine(mi, p); err != nil {
				return err
			}
		}
	} else {
		for _, c := range cw.live(p.msg.Template) {
			cand++
			if err := mg.crossExamine(cw.atAbs(c.abs), p); err != nil {
				return err
			}
		}
	}
	mg.st.CrossCandidates += cand
	cw.push(p, 0)
	if cw.n > mg.s.cfg.MaxScan {
		cw.popFront()
	}
	return nil
}

// crossExamine applies the full cross-router predicate to one candidate and
// merges on success — the shared body of both scan modes.
func (mg *Merger) crossExamine(mi, p *Pending) error {
	if !crossPair(&mi.msg, &p.msg) {
		return nil
	}
	if mi.g == p.g {
		return nil
	}
	if mg.s.crossLinked(&mi.msg, &p.msg) {
		if _, err := mg.merge(mi, p, &mg.st.CrossMerges); err != nil {
			return err
		}
	}
	return nil
}

// merge joins the groups of a and b (b is always the current message).
// Small-into-large pointer rewriting keeps total rewrite work O(n log n).
func (mg *Merger) merge(a, b *Pending, tally *int) (bool, error) {
	ga, gb := a.g, b.g
	if ga == gb {
		return false, nil
	}
	if ga.closed || gb.closed {
		return false, fmt.Errorf("grouping: merge touched a closed group (closure horizon %v violated)", mg.horizon)
	}
	if len(ga.members) < len(gb.members) {
		ga, gb = gb, ga
	}
	for _, m := range gb.members {
		m.g = ga
	}
	if need := len(ga.members) + len(gb.members); need > cap(ga.members) {
		nb := append(mg.memberBuf(need), ga.members...)
		mg.putMemberBuf(ga.members)
		ga.members = nb
	}
	ga.members = append(ga.members, gb.members...)
	if gb.last.After(ga.last) {
		ga.last = gb.last
	}
	mg.unlinkOpen(gb)
	mg.putMemberBuf(gb.members)
	gb.members = nil
	mg.st.OpenGroups--
	// b is the newest message overall, so the merged group's lastTime is
	// the current watermark — the list maximum — and a move-to-tail keeps
	// the closure list sorted.
	mg.moveToTail(ga)
	*tally++
	if mg.provHorizon > 0 {
		mg.noteMerge(ga, gb)
	}
	return true, nil
}

// closeReady pops closed groups off the head of the closure list.
func (mg *Merger) closeReady(out []ClosedGroup) []ClosedGroup {
	for mg.oHead != nil && mg.progress.last.Sub(mg.oHead.last) > mg.horizon {
		out = append(out, mg.closeGroup(mg.oHead))
	}
	return out
}

// closeGroup finalizes one group: its messages are copied out in ascending
// Seq order and each member's group reference is released. Member records
// may outlive the group inside retained windows; the closed mark keeps a
// late merge from resurrecting it.
func (mg *Merger) closeGroup(g *incGroup) ClosedGroup {
	if mg.provHorizon > 0 && !g.pub {
		// A group closing before its due time (short horizon, or a Drain)
		// still gets its revision-0 provisional record, so every final
		// event has a first signal and the emission books balance.
		mg.publish(g, UpdateProvisional)
	}
	mg.unlinkOpen(g)
	g.closed = true
	g.rev++ // the closure is the identity's last revision
	mg.st.OpenGroups--
	mg.st.OpenMessages -= len(g.members)
	msgs := mg.memberMessages(g)
	for _, m := range g.members {
		m.unref() // group membership reference
	}
	mg.putMemberBuf(g.members)
	g.members = nil
	return ClosedGroup{ID: g.id, Revision: g.rev, Members: msgs}
}

// Closure list maintenance (doubly linked, ascending last).

func (mg *Merger) pushOpen(g *incGroup) {
	g.prev = mg.oTail
	g.next = nil
	if mg.oTail != nil {
		mg.oTail.next = g
	} else {
		mg.oHead = g
	}
	mg.oTail = g
}

func (mg *Merger) unlinkOpen(g *incGroup) {
	if g.prev != nil {
		g.prev.next = g.next
	} else {
		mg.oHead = g.next
	}
	if g.next != nil {
		g.next.prev = g.prev
	} else {
		mg.oTail = g.prev
	}
	g.prev, g.next = nil, nil
}

func (mg *Merger) moveToTail(g *incGroup) {
	if mg.oTail == g {
		return
	}
	mg.unlinkOpen(g)
	mg.pushOpen(g)
}
