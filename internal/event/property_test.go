package event

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
)

// Property tests on event assembly and ranking.

func randomGrouping(rng *rand.Rand, n int) ([]grouping.Message, *grouping.Result) {
	base := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	routers := []string{"r1", "r2", "r3"}
	msgs := make([]grouping.Message, n)
	for i := range msgs {
		r := routers[rng.Intn(len(routers))]
		loc := locdict.RouterLoc(r)
		if rng.Intn(2) == 0 {
			loc = locdict.IntfLoc(r, "Serial1/0/1:0")
		}
		msgs[i] = grouping.Message{
			Seq: i, Time: base.Add(time.Duration(rng.Intn(3600)) * time.Second),
			Router: r, Template: rng.Intn(5), Loc: loc, Raw: uint64(i),
		}
	}
	// Random partition.
	groups := rng.Intn(n) + 1
	res := &grouping.Result{GroupOf: make([]int, n), Groups: make([][]int, groups)}
	for i := range msgs {
		g := rng.Intn(groups)
		res.GroupOf[i] = g
		res.Groups[g] = append(res.Groups[g], i)
	}
	// Drop empty groups to keep ids dense.
	var dense [][]int
	remap := make(map[int]int)
	for g, members := range res.Groups {
		if len(members) > 0 {
			remap[g] = len(dense)
			dense = append(dense, members)
		}
	}
	for i := range res.GroupOf {
		res.GroupOf[i] = remap[res.GroupOf[i]]
	}
	res.Groups = dense
	return msgs, res
}

// Property: batch assembly conserves messages, spans cover members, and the output
// is rank-sorted with sequential IDs.
func TestBuildInvariantsQuick(t *testing.T) {
	b := NewBuilder(nil, nil)
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%60) + 1
		msgs, res := randomGrouping(rng, n)
		events := buildRanked(b, msgs, res)
		if len(events) != len(res.Groups) {
			return false
		}
		total := 0
		prev := events[0].Score
		for i, e := range events {
			total += e.Size()
			if e.ID != i {
				return false
			}
			if e.Score > prev+1e-12 {
				return false
			}
			prev = e.Score
			if e.End.Before(e.Start) {
				return false
			}
			if len(e.Routers) == 0 || len(e.Locations) != len(e.Routers) {
				return false
			}
			// Every member's time within [Start, End].
			for _, seq := range e.MessageSeqs {
				tm := msgs[seq].Time
				if tm.Before(e.Start) || tm.After(e.End) {
					return false
				}
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Rank is idempotent and permutation-invariant.
func TestRankStableQuick(t *testing.T) {
	b := NewBuilder(nil, nil)
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%40) + 2
		msgs, res := randomGrouping(rng, n)
		events := buildRanked(b, msgs, res)

		again := append([]Event(nil), events...)
		Rank(again)
		for i := range events {
			if events[i].ID != again[i].ID {
				return false
			}
		}
		shuffled := append([]Event(nil), events...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		Rank(shuffled)
		for i := range events {
			if events[i].ID != shuffled[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
