// Package event turns message groups into prioritized, presentable network
// events (§4.2.4).
//
// Each group from the grouping stage becomes one Event carrying its time
// span, participating routers and locations, the distinct templates
// involved, and the raw message indices for drill-down. Events are scored
//
//	score = Σ_m  l_m / log(f_m)
//
// summing over the group's messages, where l_m is the level weight of the
// message's location (router-level conditions outweigh interface-level ones
// 1000:1) and f_m is the historical frequency of the message's template on
// its router — rare signatures matter more, the logarithm keeping the very
// rare from dominating outright. Ranking is by descending score.
package event

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
)

// FreqTable records how often each (router, template) signature occurred in
// the learning period; it supplies f_m during scoring.
type FreqTable struct {
	counts map[freqKey]int64
	gen    int // bumped by Add so Builder score memos invalidate
}

type freqKey struct {
	router   string
	template int
}

// NewFreqTable returns an empty table.
func NewFreqTable() *FreqTable {
	return &FreqTable{counts: make(map[freqKey]int64)}
}

// Add accumulates n occurrences of template on router.
func (f *FreqTable) Add(router string, template int, n int64) {
	f.counts[freqKey{router, template}] += n
	f.gen++
}

// Get returns the recorded frequency (0 when never seen).
func (f *FreqTable) Get(router string, template int) int64 {
	return f.counts[freqKey{router, template}]
}

// Len returns the number of distinct (router, template) entries.
func (f *FreqTable) Len() int { return len(f.counts) }

// Entries returns all entries in deterministic order, for serialization.
func (f *FreqTable) Entries() []FreqEntry {
	out := make([]FreqEntry, 0, len(f.counts))
	for k, v := range f.counts {
		out = append(out, FreqEntry{Router: k.router, Template: k.template, Count: v})
	}
	slices.SortFunc(out, func(a, b FreqEntry) int {
		if c := cmp.Compare(a.Router, b.Router); c != 0 {
			return c
		}
		return cmp.Compare(a.Template, b.Template)
	})
	return out
}

// FreqEntry is one serializable frequency record.
type FreqEntry struct {
	Router   string `json:"router"`
	Template int    `json:"template"`
	Count    int64  `json:"count"`
}

// Event is one network event: a group of related syslog messages presented
// as a unit.
type Event struct {
	ID          int
	Start, End  time.Time
	Routers     []string           // distinct, sorted
	Locations   []locdict.Location // one presentation location per router
	Templates   []int              // distinct template IDs, sorted
	MessageSeqs []int              // batch positions of member messages
	RawIndexes  []uint64           // raw syslog indices for retrieval
	Label       string
	Score       float64
}

// Size returns the number of raw messages in the event.
func (e *Event) Size() int { return len(e.MessageSeqs) }

// Span returns the event duration.
func (e *Event) Span() time.Duration { return e.End.Sub(e.Start) }

// Builder assembles and scores events. A Builder carries working state
// reused across calls, so it is single-engine state: one Builder per
// pipeline, calls serialized (exactly the discipline the stream engines
// already impose). The slices an Event retains are always freshly allocated
// at exact size — only the intermediate working sets recycle.
//
// The provisional tier rebuilds a group's event at every revision, so what
// one member costs is what a revision costs: two lookups on small keys (the
// router's name, then the template in that router's own table) and a short
// scan of the router's location tally. Two tables persist across calls: the
// router intern table (name -> dense accumulator index) and one entry per
// (router, template) signature seen, holding the memoised logarithm its
// score terms divide by. Both are caches — everything in them is
// recomputable — and begin empties them when they pass maxRouters/maxSigs,
// so a feed of garbled or spoofed hostnames cannot grow a long-lived
// builder without bound. A call's working set is whatever carries the
// current generation stamp, so nothing is cleared between calls.
type Builder struct {
	freq    *FreqTable
	labeler *Labeler

	routerIdx map[string]int32 // router name -> index into accs
	accs      []routerAcc
	sigs      []sigEntry // reached through routerAcc.sigs
	freqGen   int        // FreqTable revision sigs was computed under

	// One call's working set.
	gen     uint64         // stamps equal to gen belong to the call in progress
	ev      Event          // the event under assembly
	touched []int32        // accs of the routers seen, in first-seen order
	tpls    []int          // template of every signature seen (deduplicated in finish)
	locIdx  map[locKey]int // tally index of a router's locations past locScan

	// Label memoization: events overwhelmingly repeat a small set of
	// template combinations, so labels are cached by the sorted template
	// IDs. keyBuf is the reusable encoding buffer; labelGen tracks the
	// labeler's revision so SetName invalidates stale entries.
	labelCache map[string]string
	labelGen   int
	keyBuf     []byte
}

// Bounds on the persistent tables: far above what a real network shows
// (routers, and signatures across all of them), small enough that a builder
// at the bound holds a few tens of megabytes.
const (
	maxRouters = 1 << 16
	maxSigs    = 1 << 18
)

// routerAcc is one interned router and, while stamp == Builder.gen, what
// the call in progress has seen on it: the coarsest location level and the
// tally of distinct locations at that level (the presentation location is
// the most common of them).
type routerAcc struct {
	name  string
	sigs  map[int]int32 // template -> index into Builder.sigs
	stamp uint64
	level locdict.Level
	locs  []locTally
}

type locTally struct {
	loc locdict.Location
	n   int
}

// locScan is how many of a router's tallied locations a member scans before
// it falls back on locIdx. A group rarely shows more than a couple per
// router, but a rebooting router can show hundreds, and scanning those per
// member would be quadratic.
const locScan = 8

type locKey struct {
	router int32
	loc    locdict.Location
}

// sigEntry memoises, for one (router, template) signature, the denominator
// of its members' score terms l / log(f + e). It is a pure function of the
// signature for a fixed FreqTable, so dividing each member's level weight
// by it in member order is bit-identical to recomputing the logarithm.
type sigEntry struct {
	logf  float64
	stamp uint64 // == Builder.gen once the call in progress has listed the template
}

// NewBuilder creates a builder. freq may be nil (all frequencies treated as
// unseen); labeler may be nil (default heuristics).
func NewBuilder(freq *FreqTable, labeler *Labeler) *Builder {
	if freq == nil {
		freq = NewFreqTable()
	}
	if labeler == nil {
		labeler = NewLabeler(nil)
	}
	return &Builder{
		freq:       freq,
		labeler:    labeler,
		routerIdx:  make(map[string]int32),
		freqGen:    freq.gen,
		locIdx:     make(map[locKey]int),
		labelCache: make(map[string]string),
		labelGen:   labeler.generation(),
	}
}

// Member is one message as event assembly sees it: the fields scoring and
// presentation consume. Both the batch Build path and the streaming engine
// feed the same per-member step, so a group's event is identical however it
// was formed.
type Member struct {
	Seq      int
	Time     time.Time
	Router   string
	Template int
	Loc      locdict.Location
	Raw      uint64
}

// Build converts a grouping result into events, sorted by descending score
// (rank order). rawIndex maps batch Seq to the raw syslog message index; a
// nil rawIndex uses the Seq itself.
func (b *Builder) Build(msgs []grouping.Message, res *grouping.Result, rawIndex []uint64) []Event {
	bySeq := make([]*grouping.Message, len(msgs))
	for i := range msgs {
		bySeq[msgs[i].Seq] = &msgs[i]
	}
	events := make([]Event, 0, len(res.Groups))
	for _, seqs := range res.Groups {
		b.begin(len(seqs))
		for _, seq := range seqs {
			m := bySeq[seq]
			if m == nil {
				continue
			}
			raw := uint64(seq)
			if rawIndex != nil {
				raw = rawIndex[seq]
			}
			b.add(seq, m.Time, m.Router, m.Template, &m.Loc, raw)
		}
		e := b.finish()
		e.ID = len(events)
		events = append(events, e)
	}
	Rank(events)
	for i := range events {
		events[i].ID = i
	}
	return events
}

// BuildGroup assembles, scores, and labels one group. Members must be in
// ascending Seq order: the score is a float sum over members, so the
// summation order is part of the contract — batch groups list members
// ascending and the streaming engine sorts closed groups the same way,
// which makes their scores bit-identical, not merely close. The caller
// assigns ID.
func (b *Builder) BuildGroup(members []Member) Event {
	b.begin(len(members))
	for i := range members {
		m := &members[i]
		b.add(m.Seq, m.Time, m.Router, m.Template, &m.Loc, m.Raw)
	}
	return b.finish()
}

// BuildMessages is BuildGroup over the grouping layer's own records (a
// closed group's or a provisional publication's Members), sparing the
// streaming engines a conversion copy per member per revision. Raw is the
// record's carried raw index.
func (b *Builder) BuildMessages(ms []grouping.Message) Event {
	b.begin(len(ms))
	for i := range ms {
		m := &ms[i]
		b.add(m.Seq, m.Time, m.Router, m.Template, &m.Loc, m.Raw)
	}
	return b.finish()
}

// begin opens a call for a group of n members: a new generation retires
// the previous call's working set, a FreqTable that changed since the terms
// were memoised drops them, and tables past their bound start over.
func (b *Builder) begin(n int) {
	b.gen++
	stale := b.freq.gen != b.freqGen || len(b.sigs) > maxSigs
	if len(b.accs) > maxRouters {
		clear(b.routerIdx)
		b.accs = nil // releases every router's tally backing as well
		stale = true // signatures hang off their routers
	}
	if stale {
		for i := range b.accs {
			clear(b.accs[i].sigs)
		}
		b.sigs = b.sigs[:0]
		b.freqGen = b.freq.gen
	}
	b.ev = Event{
		MessageSeqs: make([]int, 0, n),
		RawIndexes:  make([]uint64, 0, n),
	}
}

// add is the per-member step every build path shares.
func (b *Builder) add(seq int, t time.Time, router string, template int, loc *locdict.Location, raw uint64) {
	e := &b.ev
	if e.Start.IsZero() || t.Before(e.Start) {
		e.Start = t
	}
	if t.After(e.End) {
		e.End = t
	}
	e.MessageSeqs = append(e.MessageSeqs, seq)
	e.RawIndexes = append(e.RawIndexes, raw)

	ri, a := b.router(router)
	b.tally(a, ri, loc)
	s := b.sig(a, template)
	if s.stamp != b.gen {
		s.stamp = b.gen
		b.tpls = append(b.tpls, template)
	}
	e.Score += loc.Level.Weight() / s.logf
}

// router finds (interning at first sight) the accumulator of the named
// router and enrols it in the call in progress.
func (b *Builder) router(name string) (int32, *routerAcc) {
	ri, ok := b.routerIdx[name]
	if !ok {
		ri = int32(len(b.accs))
		name = strings.Clone(name) // the table outlives the message's buffers
		b.accs = append(b.accs, routerAcc{name: name, sigs: make(map[int]int32)})
		b.routerIdx[name] = ri
	}
	a := &b.accs[ri]
	if a.stamp != b.gen {
		a.stamp = b.gen
		a.level = locdict.LevelInterface
		a.locs = a.locs[:0]
		b.touched = append(b.touched, ri)
	}
	return ri, a
}

// sig finds the memo entry of template on router a, computing the
// denominator of its score terms l_m / log(f_m) at first sight; the +e guard
// keeps it at least 1 for signatures never seen in history (f = 0).
func (b *Builder) sig(a *routerAcc, template int) *sigEntry {
	si, ok := a.sigs[template]
	if !ok {
		f := float64(b.freq.Get(a.name, template))
		si = int32(len(b.sigs))
		b.sigs = append(b.sigs, sigEntry{logf: math.Log(f + math.E)})
		a.sigs[template] = si
	}
	return &b.sigs[si]
}

// tally counts loc toward its router's presentation location: only the
// coarsest level seen so far is tallied (a router-level message subsumes
// interface detail — §4.2.4, and needs no tally at all).
func (b *Builder) tally(a *routerAcc, ri int32, loc *locdict.Location) {
	if loc.Level != a.level {
		if loc.Level < a.level {
			return
		}
		a.level = loc.Level
		a.locs = a.locs[:0]
	}
	if a.level == locdict.LevelRouter {
		return
	}
	for i := range a.locs[:min(len(a.locs), locScan)] {
		if a.locs[i].loc == *loc {
			a.locs[i].n++
			return
		}
	}
	i := len(a.locs)
	if i >= locScan {
		k := locKey{ri, *loc}
		if j, ok := b.locIdx[k]; ok {
			i = j
		} else {
			b.locIdx[k] = i
		}
	}
	if i == len(a.locs) {
		a.locs = append(a.locs, locTally{loc: *loc})
	}
	a.locs[i].n++
}

// finish closes the call: the distinct routers, one presentation location
// per router, the distinct templates and the label, all sorted into fresh
// exact-size slices.
func (b *Builder) finish() Event {
	e := b.ev
	b.ev = Event{}
	slices.SortFunc(b.touched, func(x, y int32) int { return cmp.Compare(b.accs[x].name, b.accs[y].name) })
	e.Routers = make([]string, len(b.touched))
	e.Locations = make([]locdict.Location, len(b.touched))
	for i, ri := range b.touched {
		a := &b.accs[ri]
		e.Routers[i] = a.name
		e.Locations[i] = a.presentationLoc()
	}
	slices.Sort(b.tpls)
	tpls := slices.Compact(b.tpls)
	e.Templates = append(make([]int, 0, len(tpls)), tpls...)
	slices.Sort(e.MessageSeqs)
	slices.Sort(e.RawIndexes)
	e.Label = b.eventLabel(e.Templates)
	b.touched = b.touched[:0]
	b.tpls = b.tpls[:0]
	clear(b.locIdx)
	return e
}

// eventLabel memoizes Labeler.EventLabel by the sorted distinct template
// IDs. Labels are pure functions of the template set for a fixed labeler, so
// a hit returns the identical string the labeler would have rebuilt.
func (b *Builder) eventLabel(templates []int) string {
	if g := b.labeler.generation(); g != b.labelGen {
		clear(b.labelCache)
		b.labelGen = g
	}
	b.keyBuf = b.keyBuf[:0]
	for _, id := range templates {
		b.keyBuf = binary.AppendVarint(b.keyBuf, int64(id))
	}
	if s, ok := b.labelCache[string(b.keyBuf)]; ok {
		return s
	}
	s := b.labeler.EventLabel(templates)
	b.labelCache[string(b.keyBuf)] = s
	return s
}

// presentationLoc picks the router's display location: the coarsest level
// present, and among that level's locations the most common, ties broken by
// the order of their Key() strings.
func (a *routerAcc) presentationLoc() locdict.Location {
	if a.level == locdict.LevelRouter {
		return locdict.RouterLoc(a.name)
	}
	var pick locTally
	pick.n = -1
	for i := range a.locs {
		if l := &a.locs[i]; l.n > pick.n || (l.n == pick.n && keyLess(&l.loc, &pick.loc)) {
			pick = *l
		}
	}
	return pick.loc
}

// keyLess reports whether x's Key() string sorts before y's, for two
// locations of one level. A message's location lies on its own router, so
// in practice the keys differ only in Name and nothing is built.
func keyLess(x, y *locdict.Location) bool {
	if x.Router == y.Router {
		return x.Name < y.Name
	}
	return x.Key() < y.Key()
}

// Rank sorts events by descending score, breaking ties by earlier start and
// then by first raw index so the order is total and deterministic.
func Rank(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Score != events[j].Score {
			return events[i].Score > events[j].Score
		}
		if !events[i].Start.Equal(events[j].Start) {
			return events[i].Start.Before(events[j].Start)
		}
		fi, fj := uint64(0), uint64(0)
		if len(events[i].RawIndexes) > 0 {
			fi = events[i].RawIndexes[0]
		}
		if len(events[j].RawIndexes) > 0 {
			fj = events[j].RawIndexes[0]
		}
		return fi < fj
	})
}

// Digest renders the event as the paper's one-line presentation:
//
//	start|end|r1 Serial1/0.10/10:0 r2 Serial1/0.20/20:0|link flap, line protocol flap|16 msgs
func (e *Event) Digest() string {
	const layout = "2006-01-02 15:04:05"
	locs := ""
	for i, l := range e.Locations {
		if i > 0 {
			locs += " "
		}
		if l.Level == locdict.LevelRouter {
			locs += l.Router
		} else {
			locs += l.Router + " " + l.Name
		}
	}
	return fmt.Sprintf("%s|%s|%s|%s|%d msgs",
		e.Start.Format(layout), e.End.Format(layout), locs, e.Label, e.Size())
}
