package event

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
)

// TestExtendMatchesFullBuild is the oracle of the resumable build: a pool
// of live identities, each with its own Accumulator, evolves the way the
// provisional tier's groups do — grown at the tail, merged with another
// identity (whose older members interleave), retired and their
// accumulators reused — and every Extend must equal both a full build by a
// fresh Builder and the straightforward reference computation, the score
// by its bits. The members' raw indexes do not follow Seq order, some
// identities keep dozens of interfaces on one router (past the tally scan)
// and see coarser levels arrive late, and between revisions the labeler
// renames templates, the frequency table gains counts, and once the router
// table overflows and starts over. Each call's work is held to the rule
// too: a tail growth under an unchanged epoch folds in exactly the members
// gained, anything else folds in all of them.
func TestExtendMatchesFullBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	routers := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	templates := []int{1, 2, 3, 4, 5, 6, 7, 40}
	freq := NewFreqTable()
	for _, r := range routers[:4] { // r4 and r5 are unseen: f = 0
		for _, tpl := range templates[:6] {
			freq.Add(r, tpl, int64(1+rng.Intn(50000)))
		}
	}
	labeler := NewLabeler(flapTemplates())
	b := NewBuilder(freq, labeler)

	type identity struct {
		routers []string
		nLocs   int
		coarse  int // one member in coarse draws a port, slot or router location
		members []grouping.Message
		acc     *Accumulator
	}
	var (
		live   []*identity
		spare  []*Accumulator
		seq    int
		calls  = map[string]int{}
		resets int
	)
	member := func(id *identity) grouping.Message {
		seq += 1 + rng.Intn(3)
		r := id.routers[rng.Intn(len(id.routers))]
		loc := locdict.IntfLoc(r, fmt.Sprintf("if%02d", rng.Intn(id.nLocs)))
		if rng.Intn(id.coarse) == 0 {
			switch lvl := []locdict.Level{locdict.LevelPort, locdict.LevelSlot, locdict.LevelRouter}[rng.Intn(3)]; lvl {
			case locdict.LevelRouter:
				loc = locdict.RouterLoc(r)
			default:
				loc = locdict.Location{Router: r, Level: lvl, Name: fmt.Sprint(rng.Intn(3))}
			}
		}
		return grouping.Message{
			Seq: seq, Raw: uint64(rng.Intn(1 << 16)), Router: r, Loc: loc,
			Time:     t0.Add(time.Duration(seq+rng.Intn(600)) * time.Second),
			Template: templates[rng.Intn(len(templates))],
		}
	}
	grow := func(id *identity, n int) {
		for range n {
			id.members = append(id.members, member(id))
		}
	}
	// extend checks one call of the given kind; gained is how many members
	// id gained at its tail since its last call, -1 when older ones
	// interleaved or there was no last call.
	extend := func(kind, what string, id *identity, gained int) {
		t.Helper()
		epoch, before := id.acc.epoch, memberSteps.Load()
		got := b.Extend(id.acc, id.members)
		steps := int(memberSteps.Load() - before)
		sameEvent(t, what+" vs a fresh builder", got, NewBuilder(freq, labeler).BuildGroup(id.members))
		sameEvent(t, what+" vs the reference", got, referenceBuildGroup(b, id.members))
		want, how := len(id.members), "full"
		if gained >= 0 && epoch == b.epoch {
			want, how = gained, "resumed"
		}
		if steps != want {
			t.Fatalf("%s: %d members, %d gained since the last call: folded %d, want %d", what, len(id.members), gained, steps, want)
		}
		calls[kind+"/"+how]++
	}
	open := func() {
		id := &identity{
			routers: slices.Clone(routers[:1+rng.Intn(len(routers))]),
			nLocs:   1 + rng.Intn(3),
			coarse:  20 + rng.Intn(200),
			acc:     new(Accumulator),
		}
		rng.Shuffle(len(id.routers), func(i, j int) { id.routers[i], id.routers[j] = id.routers[j], id.routers[i] })
		if rng.Intn(4) == 0 { // one router, dozens of interfaces: the tally past locScan
			id.routers, id.nLocs = id.routers[:1], 3*locScan
		}
		if n := len(spare); n > 0 {
			id.acc, spare = spare[n-1], spare[:n-1]
		}
		grow(id, 1+rng.Intn(30))
		live = append(live, id)
		extend("new", "new identity", id, -1)
	}
	retire := func(i int) {
		id := live[i]
		id.acc.Reset()
		spare = append(spare, id.acc)
		live = slices.Delete(live, i, i+1)
	}

	for round := 0; round < 2000; round++ {
		switch round % 50 { // between revisions, change what labels and scores derive from
		case 17:
			labeler.SetName(templates[rng.Intn(len(templates))], fmt.Sprintf("named at %d", round))
		case 31:
			freq.Add(routers[rng.Intn(len(routers))], templates[rng.Intn(len(templates))], int64(1+rng.Intn(1000)))
		}
		if round == 1000 { // more routers than the intern table holds: it starts over at the next call
			flood := make([]Member, maxRouters+1)
			for i := range flood {
				r := fmt.Sprintf("spoof%d", i)
				flood[i] = Member{Seq: i, Time: t0, Router: r, Loc: locdict.RouterLoc(r)}
			}
			b.BuildGroup(flood)
			epoch := b.epoch
			b.BuildGroup(nil)
			if b.epoch != epoch {
				resets++
			}
		}
		switch p := rng.Intn(100); {
		case len(live) < 2 || p < 10:
			open()
		case p < 20: // a merge: the loser's members join the winner's
			i, j := rng.Intn(len(live)), rng.Intn(len(live))
			if i == j {
				continue
			}
			win, lose := live[i], live[j]
			gained := -1
			if lose.members[0].Seq > win.members[len(win.members)-1].Seq {
				gained = len(lose.members)
			}
			win.members = append(win.members, lose.members...)
			slices.SortFunc(win.members, func(x, y grouping.Message) int { return x.Seq - y.Seq })
			retire(j)
			extend("merge", fmt.Sprintf("round %d merge", round), win, gained)
		case p < 26: // the final record; the accumulator goes spare
			i := rng.Intn(len(live))
			n := rng.Intn(3)
			grow(live[i], n)
			extend("final", fmt.Sprintf("round %d final", round), live[i], n)
			retire(i)
		default:
			i := rng.Intn(len(live))
			if len(live[i].members) > 3000 {
				retire(i)
				continue
			}
			n := 1 + rng.Intn(20)
			grow(live[i], n)
			extend("growth", fmt.Sprintf("round %d growth", round), live[i], n)
		}
	}
	t.Logf("calls: %v", calls)
	for _, kind := range []string{"new/full", "growth/resumed", "growth/full", "merge/resumed", "merge/full", "final/resumed"} {
		if calls[kind] < 5 {
			t.Errorf("%d %s calls: that regime is not exercised", calls[kind], kind)
		}
	}
	if resets != 1 {
		t.Errorf("the router table started over %d times, want once", resets)
	}
}
