package event

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/template"
)

var t0 = time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)

func flapTemplates() []template.Template {
	return []template.Template{
		template.MustTemplate(1, "LINK-3-UPDOWN|Interface *, changed state to down"),
		template.MustTemplate(2, "LINEPROTO-5-UPDOWN|Line protocol on Interface *, changed state to down"),
		template.MustTemplate(3, "LINK-3-UPDOWN|Interface *, changed state to up"),
		template.MustTemplate(4, "LINEPROTO-5-UPDOWN|Line protocol on Interface *, changed state to up"),
		template.MustTemplate(5, "SYS-1-CPURISINGTHRESHOLD|Threshold: Total CPU Utilization(Total/Intr): *"),
		template.MustTemplate(6, "BGP-5-ADJCHANGE|neighbor * vpn vrf * Down Peer closed the session"),
		template.MustTemplate(7, "PIM-5-NBRCHG|neighbor * Down"),
	}
}

func toyBatch() ([]grouping.Message, *grouping.Result) {
	l1 := locdict.IntfLoc("r1", "Serial1/0.10/10:0")
	l2 := locdict.IntfLoc("r2", "Serial1/0.20/20:0")
	msgs := []grouping.Message{
		{Seq: 0, Time: t0, Router: "r1", Template: 1, Loc: l1, Raw: 100},
		{Seq: 1, Time: t0, Router: "r2", Template: 1, Loc: l2, Raw: 101},
		{Seq: 2, Time: t0.Add(time.Second), Router: "r1", Template: 2, Loc: l1, Raw: 102},
		{Seq: 3, Time: t0.Add(31 * time.Second), Router: "r1", Template: 3, Loc: l1, Raw: 103},
		// A separate router-level CPU event.
		{Seq: 4, Time: t0.Add(time.Hour), Router: "r9", Template: 5, Loc: locdict.RouterLoc("r9"), Raw: 104},
	}
	res := &grouping.Result{
		GroupOf: []int{0, 0, 0, 0, 1},
		Groups:  [][]int{{0, 1, 2, 3}, {4}},
	}
	return msgs, res
}

// buildRanked assembles a batch the way the batch digest does: one event
// per group through BuildGroup, members in ascending Seq order, then
// Rank and IDs numbered along it. msgs is indexed by Seq.
func buildRanked(b *Builder, msgs []grouping.Message, res *grouping.Result) []Event {
	events := make([]Event, 0, len(res.Groups))
	for _, seqs := range res.Groups {
		members := make([]grouping.Message, 0, len(seqs))
		for _, seq := range seqs {
			members = append(members, msgs[seq])
		}
		events = append(events, b.BuildGroup(members))
	}
	Rank(events)
	for i := range events {
		events[i].ID = i
	}
	return events
}

func TestBuildAssemblesEvent(t *testing.T) {
	msgs, res := toyBatch()
	b := NewBuilder(nil, NewLabeler(flapTemplates()))
	events := buildRanked(b, msgs, res)
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	// Find the flap event (4 messages).
	var flap, cpu *Event
	for i := range events {
		if events[i].Size() == 4 {
			flap = &events[i]
		} else {
			cpu = &events[i]
		}
	}
	if flap == nil || cpu == nil {
		t.Fatalf("events malformed: %+v", events)
	}
	if !flap.Start.Equal(t0) || !flap.End.Equal(t0.Add(31*time.Second)) {
		t.Fatalf("span = %v..%v", flap.Start, flap.End)
	}
	if flap.Span() != 31*time.Second {
		t.Fatalf("Span = %v", flap.Span())
	}
	if strings.Join(flap.Routers, ",") != "r1,r2" {
		t.Fatalf("Routers = %v", flap.Routers)
	}
	if len(flap.Templates) != 3 || flap.Templates[0] != 1 {
		t.Fatalf("Templates = %v", flap.Templates)
	}
	if flap.RawIndexes[0] != 100 || flap.RawIndexes[3] != 103 {
		t.Fatalf("RawIndexes = %v", flap.RawIndexes)
	}
	// IDs follow rank order.
	if events[0].ID != 0 || events[1].ID != 1 {
		t.Fatalf("IDs not rank-ordered: %d, %d", events[0].ID, events[1].ID)
	}
}

func TestScoringRareAndHighLevelWins(t *testing.T) {
	freq := NewFreqTable()
	freq.Add("r1", 1, 100000) // template 1 is common on r1
	freq.Add("r9", 5, 2)      // template 5 is rare on r9

	msgs := []grouping.Message{
		{Seq: 0, Time: t0, Router: "r1", Template: 1, Loc: locdict.IntfLoc("r1", "Serial1/0/1:0")},
		{Seq: 1, Time: t0, Router: "r9", Template: 5, Loc: locdict.RouterLoc("r9")},
	}
	res := &grouping.Result{GroupOf: []int{0, 1}, Groups: [][]int{{0}, {1}}}
	b := NewBuilder(freq, NewLabeler(flapTemplates()))
	events := buildRanked(b, msgs, res)
	// The rare, router-level event must rank first.
	if events[0].Routers[0] != "r9" {
		t.Fatalf("rank order wrong: %+v", events)
	}
	if events[0].Score <= events[1].Score {
		t.Fatalf("scores not ordered: %v <= %v", events[0].Score, events[1].Score)
	}
	// Spot-check the formula: l/log(f+e) for the interface message.
	want := 1.0 / math.Log(100000+math.E)
	if diff := math.Abs(events[1].Score - want); diff > 1e-9 {
		t.Fatalf("score = %v, want %v", events[1].Score, want)
	}
}

func TestScoreSizeMatters(t *testing.T) {
	// More messages, higher score (severity proxy).
	loc := locdict.IntfLoc("r1", "Serial1/0/1:0")
	var msgs []grouping.Message
	for i := 0; i < 5; i++ {
		msgs = append(msgs, grouping.Message{Seq: i, Time: t0, Router: "r1", Template: 1, Loc: loc})
	}
	res := &grouping.Result{GroupOf: []int{0, 0, 0, 0, 1}, Groups: [][]int{{0, 1, 2, 3}, {4}}}
	events := buildRanked(NewBuilder(nil, nil), msgs, res)
	if events[0].Size() != 4 {
		t.Fatalf("larger group should rank first: %+v", events)
	}
	if events[0].Score != 4*events[1].Score {
		t.Fatalf("score should scale with size: %v vs %v", events[0].Score, events[1].Score)
	}
}

// locEvent builds one event from messages of one router, one per location.
func locEvent(b *Builder, router string, locs []locdict.Location) Event {
	return b.BuildGroup(membersAt(router, locs))
}

func TestPresentationLocCoarsestWins(t *testing.T) {
	b := NewBuilder(nil, nil)
	got := locEvent(b, "r1", []locdict.Location{
		locdict.IntfLoc("r1", "Serial1/0/1:0"),
		locdict.RouterLoc("r1"),
		locdict.IntfLoc("r1", "Serial1/0/2:0"),
	}).Locations
	if len(got) != 1 || got[0] != locdict.RouterLoc("r1") {
		t.Fatalf("presentation location = %v, want router level", got)
	}
	// Without the router-level message, the most common interface shows.
	got = locEvent(b, "r1", []locdict.Location{
		locdict.IntfLoc("r1", "Serial1/0/1:0"),
		locdict.IntfLoc("r1", "Serial1/0/2:0"),
		locdict.IntfLoc("r1", "Serial1/0/1:0"),
	}).Locations
	if len(got) != 1 || got[0].Name != "Serial1/0/1:0" {
		t.Fatalf("presentation location = %v", got)
	}
}

// TestPresentationLocTieBreak: among equally common locations at the
// coarsest level present, the one whose Key() string sorts first shows,
// whatever order the members arrive in.
func TestPresentationLocTieBreak(t *testing.T) {
	intf := func(n string) locdict.Location { return locdict.IntfLoc("r1", n) }
	at := func(lvl locdict.Level, n string) locdict.Location {
		return locdict.Location{Router: "r1", Level: lvl, Name: n}
	}
	for _, c := range []struct {
		name string
		locs []locdict.Location
		want locdict.Location
	}{
		{"two names tied", []locdict.Location{intf("Serial2/0"), intf("Serial1/0")}, intf("Serial1/0")},
		{"name prefix sorts first", []locdict.Location{intf("Serial1/0.10"), intf("Serial1/0")}, intf("Serial1/0")},
		{"count beats name", []locdict.Location{intf("A"), intf("B"), intf("B")}, intf("B")},
		{"three-way tie", []locdict.Location{intf("c"), intf("a"), intf("b"), intf("b"), intf("c"), intf("a")}, intf("a")},
		{"tie only at the coarsest level", []locdict.Location{intf("a"), intf("a"), intf("a"), at(locdict.LevelPort, "2/1"), at(locdict.LevelPort, "1/1")}, at(locdict.LevelPort, "1/1")},
		{"slot over tied ports", []locdict.Location{at(locdict.LevelPort, "1/1"), at(locdict.LevelPort, "1/2"), at(locdict.LevelSlot, "9")}, at(locdict.LevelSlot, "9")},
		{"coarser level arrives first", []locdict.Location{at(locdict.LevelSlot, "4"), intf("a"), at(locdict.LevelSlot, "3"), intf("a")}, at(locdict.LevelSlot, "3")},
		{"same name on another router's location", []locdict.Location{intf("x"), locdict.IntfLoc("r0", "x")}, locdict.IntfLoc("r0", "x")},
		{"router names that prefix each other", []locdict.Location{intf("x"), locdict.IntfLoc("r1\t", "x")}, locdict.IntfLoc("r1\t", "x")},
		{"past the tally scan", manyLocs(3*locScan, 2), intf("if00")},
	} {
		b := NewBuilder(nil, nil)
		for _, locs := range [][]locdict.Location{c.locs, reversed(c.locs)} {
			got := locEvent(b, "r1", locs).Locations
			if len(got) != 1 || got[0] != c.want {
				t.Errorf("%s: presentation location = %v, want %v", c.name, got, c.want)
			}
			if ref := referenceBuildGroup(b, membersAt("r1", locs)).Locations; !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: presentation location = %v, reference %v", c.name, got, ref)
			}
		}
	}
}

// manyLocs lists n distinct interfaces of r1, each repeated k times,
// interleaved.
func manyLocs(n, k int) []locdict.Location {
	var out []locdict.Location
	for r := 0; r < k; r++ {
		for i := 0; i < n; i++ {
			out = append(out, locdict.IntfLoc("r1", fmt.Sprintf("if%02d", i)))
		}
	}
	return out
}

func reversed(locs []locdict.Location) []locdict.Location {
	out := slices.Clone(locs)
	slices.Reverse(out)
	return out
}

func membersAt(router string, locs []locdict.Location) []Member {
	members := make([]Member, len(locs))
	for i, l := range locs {
		members[i] = Member{Seq: i, Time: t0.Add(time.Duration(i) * time.Second), Router: router, Template: 1, Loc: l, Raw: uint64(i)}
	}
	return members
}

func TestDigestFormat(t *testing.T) {
	msgs, res := toyBatch()
	b := NewBuilder(nil, NewLabeler(flapTemplates()))
	events := buildRanked(b, msgs, res)
	var flap *Event
	for i := range events {
		if events[i].Size() == 4 {
			flap = &events[i]
		}
	}
	d := flap.Digest()
	parts := strings.Split(d, "|")
	if len(parts) != 5 {
		t.Fatalf("digest fields = %d: %q", len(parts), d)
	}
	if parts[0] != "2010-01-10 00:00:00" || parts[1] != "2010-01-10 00:00:31" {
		t.Fatalf("digest times wrong: %q", d)
	}
	if !strings.Contains(parts[2], "r1 Serial1/0.10/10:0") || !strings.Contains(parts[2], "r2 Serial1/0.20/20:0") {
		t.Fatalf("digest locations wrong: %q", parts[2])
	}
	if !strings.Contains(parts[3], "link flap") {
		t.Fatalf("digest label = %q, want link flap", parts[3])
	}
	if parts[4] != "4 msgs" {
		t.Fatalf("digest size field = %q", parts[4])
	}
}

func TestLabelerFlapCollapse(t *testing.T) {
	l := NewLabeler(flapTemplates())
	got := l.EventLabel([]int{1, 2, 3, 4})
	if got != "line protocol flap, link flap" {
		t.Fatalf("EventLabel = %q", got)
	}
}

func TestLabelerTemplateNames(t *testing.T) {
	l := NewLabeler(flapTemplates())
	cases := map[int]string{
		1: "link down",
		3: "link up",
		5: "system high",
		6: "bgp session down",
		7: "pim neighbor down",
	}
	for id, want := range cases {
		if got := l.TemplateName(id); got != want {
			t.Errorf("TemplateName(%d) = %q, want %q", id, got, want)
		}
	}
	if got := l.TemplateName(99); got != "signature 99" {
		t.Errorf("unknown template name = %q", got)
	}
}

func TestLabelerCustomOverride(t *testing.T) {
	l := NewLabeler(flapTemplates())
	l.SetName(6, "vpn peer loss")
	if got := l.TemplateName(6); got != "vpn peer loss" {
		t.Fatalf("override = %q", got)
	}
	if got := l.EventLabel([]int{6}); got != "vpn peer loss" {
		t.Fatalf("EventLabel with override = %q", got)
	}
}

func TestFreqTable(t *testing.T) {
	f := NewFreqTable()
	f.Add("r1", 1, 5)
	f.Add("r1", 1, 3)
	f.Add("r2", 1, 7)
	if f.Get("r1", 1) != 8 || f.Get("r2", 1) != 7 || f.Get("r3", 1) != 0 {
		t.Fatal("counts wrong")
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	es := f.Entries()
	if len(es) != 2 || es[0].Router != "r1" || es[1].Router != "r2" {
		t.Fatalf("Entries = %+v", es)
	}
}

func TestRankDeterministicTies(t *testing.T) {
	a := Event{Score: 1, Start: t0, RawIndexes: []uint64{5}}
	b := Event{Score: 1, Start: t0, RawIndexes: []uint64{2}}
	evs := []Event{a, b}
	Rank(evs)
	if evs[0].RawIndexes[0] != 2 {
		t.Fatalf("tie-break by raw index failed: %+v", evs)
	}
}

func TestItoa(t *testing.T) {
	for n, want := range map[int]string{0: "0", 7: "7", 42: "42", -3: "-3", 1234: "1234"} {
		if got := itoa(n); got != want {
			t.Errorf("itoa(%d) = %q", n, got)
		}
	}
}

// referenceBuildGroup is the straightforward group→event computation the
// Builder's shared per-member step must reproduce bit for bit: fresh maps,
// a frequency lookup and a logarithm per member, Key() strings for the
// tie-break. It reads b's frequency table and labeler and none of its
// working state.
func referenceBuildGroup(b *Builder, members []Member) Event {
	e := Event{
		MessageSeqs: make([]int, 0, len(members)),
		RawIndexes:  make([]uint64, 0, len(members)),
	}
	routers := map[string]bool{}
	templates := map[int]bool{}
	perRouter := map[string][]locdict.Location{}
	for i := range members {
		m := &members[i]
		if e.Start.IsZero() || m.Time.Before(e.Start) {
			e.Start = m.Time
		}
		if m.Time.After(e.End) {
			e.End = m.Time
		}
		routers[m.Router] = true
		templates[m.Template] = true
		perRouter[m.Router] = append(perRouter[m.Router], m.Loc)
		e.MessageSeqs = append(e.MessageSeqs, m.Seq)
		e.RawIndexes = append(e.RawIndexes, m.Raw)
		f := float64(b.freq.Get(m.Router, m.Template))
		e.Score += m.Loc.Level.Weight() / math.Log(f+math.E)
	}
	e.Routers = make([]string, 0, len(routers))
	for r := range routers {
		e.Routers = append(e.Routers, r)
	}
	slices.Sort(e.Routers)
	e.Locations = make([]locdict.Location, 0, len(e.Routers))
	for _, r := range e.Routers {
		e.Locations = append(e.Locations, referencePresentationLoc(r, perRouter[r]))
	}
	e.Templates = make([]int, 0, len(templates))
	for t := range templates {
		e.Templates = append(e.Templates, t)
	}
	slices.Sort(e.Templates)
	slices.Sort(e.MessageSeqs)
	slices.Sort(e.RawIndexes)
	e.Label = b.labeler.EventLabel(e.Templates)
	return e
}

func referencePresentationLoc(router string, locs []locdict.Location) locdict.Location {
	best := locdict.LevelInterface
	for _, l := range locs {
		if l.Level > best {
			best = l.Level
		}
	}
	if best == locdict.LevelRouter {
		return locdict.RouterLoc(router)
	}
	counts := map[locdict.Location]int{}
	for _, l := range locs {
		if l.Level == best {
			counts[l]++
		}
	}
	var pick locdict.Location
	pickN := -1
	for l, n := range counts {
		if n > pickN || (n == pickN && l.Key() < pick.Key()) {
			pick, pickN = l, n
		}
	}
	return pick
}

// TestBuilderTablesBounded feeds one long-lived Builder more distinct router
// names, then more distinct signatures on one router, than its persistent
// tables may hold — what a collector sees when hostnames arrive garbled or
// spoofed — and checks that the tables start over instead of growing, and
// that a probe group builds to the same event before, between and after.
func TestBuilderTablesBounded(t *testing.T) {
	b := NewBuilder(nil, nil)
	probe := membersAt("r1", manyLocs(3, 2))
	probe[1].Router, probe[1].Loc.Router = "r2", "r2"
	want := referenceBuildGroup(b, probe)
	const groupSize = 1000
	members := make([]Member, groupSize)
	feed := func(what string, groups int, fill func(m *Member, n int)) {
		for g := 0; g < groups; g++ {
			for i := range members {
				members[i] = Member{Seq: i, Time: t0, Raw: uint64(i)}
				fill(&members[i], g*groupSize+i)
			}
			b.BuildGroup(members)
			if len(b.accs) > maxRouters+groupSize || len(b.routerIdx) != len(b.accs) {
				t.Fatalf("%s, group %d: %d routers interned (%d indexed), bound %d", what, g, len(b.accs), len(b.routerIdx), maxRouters)
			}
			indexed := 0
			for i := range b.accs {
				indexed += len(b.accs[i].sigs)
			}
			if len(b.sigs) > maxSigs+groupSize || indexed != len(b.sigs) {
				t.Fatalf("%s, group %d: %d signatures memoised (%d indexed), bound %d", what, g, len(b.sigs), indexed, maxSigs)
			}
		}
		sameEvent(t, "probe after "+what, b.BuildGroup(probe), want)
	}
	feed("distinct routers", 2*maxRouters/groupSize+2, func(m *Member, n int) {
		m.Router = fmt.Sprintf("spoof%d", n)
		m.Loc = locdict.IntfLoc(m.Router, "x")
	})
	feed("distinct signatures", 2*maxSigs/groupSize+2, func(m *Member, n int) {
		m.Router, m.Template, m.Loc = "r1", n, locdict.IntfLoc("r1", "x")
	})
}

// sameEvent demands bit-identical events: the score by its bits, every
// slice element for element.
func sameEvent(t *testing.T, what string, got, want Event) {
	t.Helper()
	if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		t.Fatalf("%s: score %v (%#x), reference %v (%#x)", what,
			got.Score, math.Float64bits(got.Score), want.Score, math.Float64bits(want.Score))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s differs:\n got: %+v\nwant: %+v", what, got, want)
	}
}

// TestBuildGroupMatchesReference drives one reused Builder through
// generated groups and checks every event against the reference. The
// generator covers what the working state could get wrong: routers
// interleaved member by member, signatures repeated
// within and across groups, signatures the frequency table has never seen
// (f = 0), unknown (-1), negative and very large template IDs, every level
// including out-of-range ones, more locations per router than a member
// scans before it falls back on the hashed tally index, groups past a
// thousand members — and, between groups,
// Labeler.SetName and FreqTable.Add, so a stale label, score memo or
// generation stamp from an earlier call would surface as a mismatch.
func TestBuildGroupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	routers := make([]string, 12)
	for i := range routers {
		routers[i] = fmt.Sprintf("r%d", i)
	}
	templates := []int{-1, -7, 0, 1, 2, 3, 4, 5, 6, 7, 40, 1 << 40}
	levels := []locdict.Level{locdict.LevelInterface, locdict.LevelInterface, locdict.LevelInterface,
		locdict.LevelPort, locdict.LevelSlot, locdict.LevelRouter, locdict.Level(-1), locdict.Level(5)}
	freq := NewFreqTable()
	for _, r := range routers[:8] { // the last four routers are unseen: f = 0 everywhere
		for _, tpl := range templates[:8] {
			freq.Add(r, tpl, int64(1+rng.Intn(100000)))
		}
	}
	labeler := NewLabeler(flapTemplates())
	b := NewBuilder(freq, labeler)

	group := func(n, nRouters, nLocs int, lvls []locdict.Level) []Member {
		rs := make([]string, nRouters)
		for i, j := range rng.Perm(len(routers))[:nRouters] {
			rs[i] = routers[j]
		}
		members := make([]Member, n)
		seq, raw := rng.Intn(1000), uint64(rng.Intn(1000))
		for i := range members {
			seq += 1 + rng.Intn(3)
			raw += uint64(rng.Intn(3))
			r := rs[rng.Intn(nRouters)]
			lvl := lvls[rng.Intn(len(lvls))]
			loc := locdict.Location{Router: r, Level: lvl, Name: fmt.Sprintf("%d/%d", lvl, rng.Intn(nLocs))}
			if lvl == locdict.LevelRouter {
				loc.Name = ""
			}
			if rng.Intn(50) == 0 {
				loc.Router = rs[0] // a location on another member router
			}
			members[i] = Member{
				Seq: seq, Raw: raw, Router: strings.Clone(r), Loc: loc,
				Time:     t0.Add(time.Duration(rng.Intn(7200)-3600) * time.Second),
				Template: templates[rng.Intn(len(templates))],
			}
		}
		if n > 4 && rng.Intn(4) == 0 { // raw indices need not follow Seq
			members[0].Raw, members[n-1].Raw = members[n-1].Raw, members[0].Raw
		}
		return members
	}
	check := func(what string, members []Member) {
		t.Helper()
		want := referenceBuildGroup(b, members)
		sameEvent(t, what, b.BuildGroup(members), want)
	}

	noRouterLevel := levels[:5]
	for round := 0; round < 300; round++ {
		switch round % 25 { // between groups, change what labels and scores derive from
		case 11:
			labeler.SetName(templates[rng.Intn(len(templates))], fmt.Sprintf("named at %d", round))
		case 19:
			freq.Add(routers[rng.Intn(len(routers))], templates[rng.Intn(len(templates))], int64(1+rng.Intn(1000)))
		}
		n := 1 + rng.Intn(40)
		lvls := levels
		switch round % 10 {
		case 3:
			n = 1000 + rng.Intn(1500)
		case 5: // one router, many interfaces, nothing coarser: the tally past locScan
			check(fmt.Sprintf("round %d", round), group(400, 1, 5*locScan, levels[:1]))
			continue
		case 7:
			lvls = noRouterLevel
		case 9: // every router at once, many signatures on each
			check(fmt.Sprintf("round %d", round), group(600, len(routers), 3, levels))
			continue
		}
		check(fmt.Sprintf("round %d", round), group(n, 1+rng.Intn(4), 1+rng.Intn(6), lvls))
	}
	check("empty group", nil)
}
