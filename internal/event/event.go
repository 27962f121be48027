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
	"sync/atomic"
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
// — only the intermediate working sets recycle.
//
// Every build is one accumulation: the members are folded one at a time
// into an Accumulator (span, running score, member lists, per-router
// location tally, template set) and the event is read off it. BuildGroup
// folds a group into an empty accumulator of the builder's own; Extend
// folds into one the caller keeps, and when the
// group's first members are exactly the ones that accumulator already
// holds — a provisional event that has only grown since its last
// publication — it folds in just the rest. The score is a sum over members
// in ascending Seq order, so resuming it adds the same terms in the same
// order a full build would, and the event is bit-identical.
//
// What one member costs is two lookups on small keys (the router's name,
// then the template in that router's own table) and a short scan of the
// router's location tally. Two tables persist across calls: the router
// intern table (name -> dense index) and one entry per (router, template)
// signature seen, holding the memoised logarithm its score terms divide by.
// Both are caches — everything in them is recomputable — and begin empties
// them when they pass maxRouters/maxSigs, so a feed of garbled or spoofed
// hostnames cannot grow a long-lived builder without bound. Emptying them,
// or a FreqTable that changed, starts a new epoch: an accumulator folded
// under an earlier one starts over. A call's working set is whatever carries
// the current generation stamp, so nothing is cleared between calls.
type Builder struct {
	freq    *FreqTable
	labeler *Labeler

	routerIdx map[string]int32 // router name -> index into accs
	accs      []routerAcc
	sigs      []sigEntry // reached through routerAcc.sigs
	freqGen   int        // FreqTable revision sigs was computed under
	epoch     uint64     // bumped whenever the tables above start over

	gen    uint64      // stamps equal to gen belong to the call in progress
	one    Accumulator // the accumulator of BuildGroup
	seqBuf []int       // mergeTail scratch
	rawBuf []uint64

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

// routerAcc is one interned router: its signatures and, while stamp ==
// Builder.gen, where the accumulator of the call in progress tallies it.
type routerAcc struct {
	name  string
	sigs  map[int]int32 // template -> index into Builder.sigs
	stamp uint64
	slot  int32 // index into that accumulator's routers
}

// Accumulator is one event's assembly state between Builder calls: what
// the members folded so far sum to, the members themselves (Seqs and raw
// indexes, sorted: 16 bytes per member) and small per-router and template
// tallies. The zero value is empty. It belongs to the Builder that fills it
// and shares nothing with the events built from it.
type Accumulator struct {
	epoch      uint64 // Builder.epoch the members were folded under
	start, end time.Time
	score      float64
	seqs       []int       // ascending
	raws       []uint64    // ascending
	routers    []accRouter // by router name between calls
	tpls       []int       // distinct templates, ascending between calls
	locIdx     map[locKey]int
}

// Reset empties acc for another event, releasing its member lists and
// keeping the small tallies' storage.
func (acc *Accumulator) Reset() {
	routers, tpls, locIdx := acc.routers[:0], acc.tpls[:0], acc.locIdx
	clear(locIdx)
	*acc = Accumulator{routers: routers, tpls: tpls, locIdx: locIdx}
}

// accRouter is what an accumulation has seen on one router: the coarsest
// location level and the tally of distinct locations at that level (the
// presentation location is the most common of them).
type accRouter struct {
	ri    int32 // index into Builder.accs
	level locdict.Level
	locs  []locTally
}

type locTally struct {
	loc locdict.Location
	n   int
}

// locScan is how many of a router's tallied locations a member scans before
// it falls back on the accumulator's locIdx. A group rarely shows more than
// a couple per router, but a rebooting router can show hundreds, and
// scanning those per member would be quadratic.
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

// memberSteps counts the members every Builder has folded in.
var memberSteps atomic.Uint64

// MemberSteps returns how many members all Builders in the process have
// folded into an accumulation so far: the work counter of event assembly,
// which lets a test hold a resumed build to the members it gained.
func MemberSteps() uint64 { return memberSteps.Load() }

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
		labelCache: make(map[string]string),
		labelGen:   labeler.generation(),
	}
}

// Member is one message as event assembly sees it: the grouping layer's own
// record (a closed group's or a provisional publication's Members), so the
// streaming engines hand their groups over without a conversion copy.
// Scoring and presentation read Seq, Time, Router, Template, Loc and Raw,
// the carried raw index.
type Member = grouping.Message

// BuildGroup assembles, scores, and labels one group. Members must be in
// ascending Seq order: the score is a float sum over members, so the
// summation order is part of the contract — batch groups list members
// ascending and the streaming engine sorts closed groups the same way,
// which makes their scores bit-identical, not merely close. The caller
// assigns ID.
func (b *Builder) BuildGroup(members []Member) Event {
	return b.Extend(&b.one, members) // finish leaves the builder's own accumulator empty
}

// Extend is BuildGroup resuming from acc, and leaves acc holding ms for
// the next call. ms must be in ascending Seq order, as for BuildGroup. When
// the Seqs acc holds are the Seqs of ms's first members and acc was folded
// under the builder's current epoch, only the members after them are folded
// in; otherwise — a merge brought in older members, or the frequency table
// changed — acc starts over. Either way the event is BuildGroup(ms), bit
// for bit.
func (b *Builder) Extend(acc *Accumulator, ms []Member) Event {
	k := len(acc.seqs)
	if k > len(ms) || !heldPrefix(acc.seqs, ms) {
		k = 0
	}
	k = b.begin(acc, k, len(ms))
	for i := k; i < len(ms); i++ {
		b.add(acc, &ms[i])
	}
	return b.finish(acc, k)
}

// heldPrefix reports whether seqs are the Seqs of ms's first len(seqs)
// members.
func heldPrefix(seqs []int, ms []Member) bool {
	for i, s := range seqs {
		if ms[i].Seq != s {
			return false
		}
	}
	return true
}

// begin opens a call that resumes acc after its first k members, for a
// group of n: a new generation retires the previous call's working set, a
// FreqTable that changed since the terms were memoised drops them, and
// tables past their bound start over — either of which starts a new epoch.
// acc starts over when k is 0 or it was folded under an earlier epoch.
// begin returns how many members acc kept.
func (b *Builder) begin(acc *Accumulator, k, n int) int {
	b.gen++
	stale := b.freq.gen != b.freqGen || len(b.sigs) > maxSigs
	if len(b.accs) > maxRouters {
		clear(b.routerIdx)
		b.accs = nil
		stale = true // signatures hang off their routers
	}
	if stale {
		for i := range b.accs {
			clear(b.accs[i].sigs)
		}
		b.sigs = b.sigs[:0]
		b.freqGen = b.freq.gen
		b.epoch++
	}
	if k == 0 || acc.epoch != b.epoch {
		seqs, raws := acc.seqs[:0], acc.raws[:0]
		if seqs == nil || cap(seqs) < n {
			seqs = make([]int, 0, n)
		}
		if raws == nil || cap(raws) < n {
			raws = make([]uint64, 0, n)
		}
		acc.Reset()
		acc.epoch, acc.seqs, acc.raws = b.epoch, seqs, raws
		return 0
	}
	for i := range acc.routers {
		a := &b.accs[acc.routers[i].ri]
		a.stamp, a.slot = b.gen, int32(i)
	}
	return k
}

// add is the per-member step every build path shares.
func (b *Builder) add(acc *Accumulator, m *Member) {
	if acc.start.IsZero() || m.Time.Before(acc.start) {
		acc.start = m.Time
	}
	if m.Time.After(acc.end) {
		acc.end = m.Time
	}
	acc.seqs = append(acc.seqs, m.Seq)
	acc.raws = append(acc.raws, m.Raw)

	a := b.router(acc, m.Router)
	tally(acc, &acc.routers[a.slot], &m.Loc)
	s := b.sig(a, m.Template)
	if s.stamp != b.gen {
		s.stamp = b.gen
		acc.tpls = append(acc.tpls, m.Template)
	}
	acc.score += m.Loc.Level.Weight() / s.logf
}

// router finds (interning at first sight) the named router and enrols it
// in acc's tally.
func (b *Builder) router(acc *Accumulator, name string) *routerAcc {
	ri, ok := b.routerIdx[name]
	if !ok {
		ri = int32(len(b.accs))
		name = strings.Clone(name) // the table outlives the message's buffers
		b.accs = append(b.accs, routerAcc{name: name, sigs: make(map[int]int32)})
		b.routerIdx[name] = ri
	}
	a := &b.accs[ri]
	if a.stamp != b.gen {
		a.stamp, a.slot = b.gen, int32(len(acc.routers))
		if len(acc.routers) < cap(acc.routers) { // reuse the slot's tally storage
			acc.routers = acc.routers[:len(acc.routers)+1]
			r := &acc.routers[a.slot]
			r.ri, r.level, r.locs = ri, locdict.LevelInterface, r.locs[:0]
		} else {
			acc.routers = append(acc.routers, accRouter{ri: ri, level: locdict.LevelInterface})
		}
	}
	return a
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
func tally(acc *Accumulator, r *accRouter, loc *locdict.Location) {
	if loc.Level != r.level {
		if loc.Level < r.level {
			return
		}
		r.level = loc.Level
		r.locs = r.locs[:0]
	}
	if r.level == locdict.LevelRouter {
		return
	}
	for i := range r.locs[:min(len(r.locs), locScan)] {
		if r.locs[i].loc == *loc {
			r.locs[i].n++
			return
		}
	}
	i := len(r.locs)
	if i >= locScan {
		if acc.locIdx == nil {
			acc.locIdx = make(map[locKey]int)
		}
		k := locKey{r.ri, *loc}
		if j, ok := acc.locIdx[k]; ok {
			i = j
		} else {
			acc.locIdx[k] = i
		}
	}
	if i == len(r.locs) {
		r.locs = append(r.locs, locTally{loc: *loc})
	}
	r.locs[i].n++
}

// finish closes the call on acc, whose members past the first k it folded
// in: the distinct routers, one presentation location per router, the
// distinct templates, the members and the label, all sorted into fresh
// slices. The builder's own accumulator hands its member lists to the
// event and is left empty; a caller's keeps them for Extend.
func (b *Builder) finish(acc *Accumulator, k int) Event {
	memberSteps.Add(uint64(len(acc.seqs) - k))
	mergeTail(acc.seqs, k, &b.seqBuf)
	mergeTail(acc.raws, k, &b.rawBuf)
	slices.SortFunc(acc.routers, func(x, y accRouter) int { return cmp.Compare(b.accs[x.ri].name, b.accs[y.ri].name) })
	slices.Sort(acc.tpls)
	acc.tpls = slices.Compact(acc.tpls)

	e := Event{
		Start:     acc.start,
		End:       acc.end,
		Routers:   make([]string, len(acc.routers)),
		Locations: make([]locdict.Location, len(acc.routers)),
		Templates: append(make([]int, 0, len(acc.tpls)), acc.tpls...),
		Score:     acc.score,
	}
	for i := range acc.routers {
		r := &acc.routers[i]
		e.Routers[i] = b.accs[r.ri].name
		e.Locations[i] = r.presentationLoc(e.Routers[i])
	}
	if acc == &b.one {
		e.MessageSeqs, e.RawIndexes = acc.seqs, acc.raws
		acc.Reset()
	} else {
		e.MessageSeqs, e.RawIndexes = slices.Clone(acc.seqs), slices.Clone(acc.raws)
	}
	e.Label = b.eventLabel(e.Templates)
	return e
}

// mergeTail sorts s[k:] and merges it into the already sorted s[:k] in
// place, staging the tail in buf. A resumed group's new members usually
// all sort after the ones it held, which costs one comparison.
func mergeTail[E cmp.Ordered](s []E, k int, buf *[]E) {
	tail := s[k:]
	slices.Sort(tail)
	if k == 0 || len(tail) == 0 || s[k-1] <= tail[0] {
		return
	}
	*buf = append((*buf)[:0], tail...)
	t := *buf
	i, j := k-1, len(t)-1
	for w := len(s) - 1; j >= 0; w-- {
		if i >= 0 && s[i] > t[j] {
			s[w] = s[i]
			i--
		} else {
			s[w] = t[j]
			j--
		}
	}
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

// presentationLoc picks the display location of the router named name: the
// coarsest level present, and among that level's locations the most common,
// ties broken by the order of their Key() strings.
func (r *accRouter) presentationLoc(name string) locdict.Location {
	if r.level == locdict.LevelRouter {
		return locdict.RouterLoc(name)
	}
	var pick locTally
	pick.n = -1
	for i := range r.locs {
		if l := &r.locs[i]; l.n > pick.n || (l.n == pick.n && keyLess(&l.loc, &pick.loc)) {
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
