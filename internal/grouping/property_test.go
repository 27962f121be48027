package grouping

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"syslogdigest/internal/locdict"
)

// Property tests over randomized message batches: whatever the input, the
// partition must be well-formed and invariant to input order.

// randomBatch builds n messages over the toy dictionary's locations with
// random times, templates, and locations.
func randomBatch(rng *rand.Rand, n int) []Message {
	locs := []locdict.Location{
		locdict.IntfLoc("r1", "Serial1/0.10/10:0"),
		locdict.IntfLoc("r2", "Serial1/0.20/20:0"),
		locdict.RouterLoc("r1"),
		locdict.RouterLoc("r2"),
	}
	base := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	out := make([]Message, n)
	for i := range out {
		loc := locs[rng.Intn(len(locs))]
		out[i] = Message{
			Seq:      i,
			Time:     base.Add(time.Duration(rng.Intn(7200)) * time.Second),
			Router:   loc.Router,
			Template: 1 + rng.Intn(4),
			Loc:      loc,
		}
		if rng.Intn(4) == 0 {
			other := "r2"
			if loc.Router == "r2" {
				other = "r1"
			}
			out[i].Peers = []string{other}
		}
	}
	return out
}

func TestGroupPartitionWellFormedQuick(t *testing.T) {
	dict := toyDict(t)
	rb := flapRuleBase()
	g := newGrouper(t, dict, rb, Config{})

	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%64) + 1
		batch := randomBatch(rng, n)
		res, err := g.Group(batch)
		if err != nil {
			return false
		}
		// Every message in exactly one group; ids dense; members ascending.
		if len(res.GroupOf) != n {
			return false
		}
		seen := make(map[int]int)
		for _, id := range res.GroupOf {
			if id < 0 || id >= len(res.Groups) {
				return false
			}
			seen[id]++
		}
		if len(seen) != len(res.Groups) {
			return false
		}
		total := 0
		for id, members := range res.Groups {
			total += len(members)
			for i, seq := range members {
				if res.GroupOf[seq] != id {
					return false
				}
				if i > 0 && members[i-1] >= seq {
					return false
				}
			}
		}
		if total != n {
			return false
		}
		return n == 0 || len(res.Groups) > 0 && len(res.Groups) <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupOrderInvarianceQuick(t *testing.T) {
	dict := toyDict(t)
	rb := flapRuleBase()
	g := newGrouper(t, dict, rb, Config{})

	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%48) + 2
		batch := randomBatch(rng, n)
		shuffled := append([]Message(nil), batch...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		a, err := g.Group(batch)
		if err != nil {
			return false
		}
		b, err := g.Group(shuffled)
		if err != nil {
			return false
		}
		if len(a.Groups) != len(b.Groups) {
			return false
		}
		// Same partition: same co-membership for every pair.
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				if (a.GroupOf[x] == a.GroupOf[y]) != (b.GroupOf[x] == b.GroupOf[y]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMoreKnowledgeNeverWorsensCompression: adding rules can only merge
// more, never split — group count with rules <= group count without.
func TestMoreKnowledgeNeverWorsensCompression(t *testing.T) {
	dict := toyDict(t)
	rb := flapRuleBase()
	gWith := newGrouper(t, dict, rb, Config{})
	gWithout := newGrouper(t, dict, nil, Config{})

	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%64) + 1
		batch := randomBatch(rng, n)
		a, err := gWith.Group(batch)
		if err != nil {
			return false
		}
		b, err := gWithout.Group(batch)
		if err != nil {
			return false
		}
		return len(a.Groups) <= len(b.Groups)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
