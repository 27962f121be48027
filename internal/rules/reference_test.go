package rules

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"syslogdigest/internal/par"
)

// The references below count transactions the straightforward way: a map
// for each window's distinct set and template-keyed maps for the counts.
// The production tally counts over dense per-worker IDs and folds into the
// same maps once; TestTallyMatchesReference and FuzzMineStream hold it to
// these references with reflect.DeepEqual.

// refMineStream slides a window over one router's sorted events, counting
// one transaction per message into res.
func refMineStream(stream []Event, cfg Config, res *Result) {
	j := 0
	items := make([]int, 0, cfg.MaxItemsPerTx)
	seen := make(map[int]bool, cfg.MaxItemsPerTx)
	for i := range stream {
		deadline := stream[i].Time.Add(cfg.Window)
		if j < i {
			j = i
		}
		for j < len(stream) && !stream[j].Time.After(deadline) {
			j++
		}
		items = items[:0]
		for k := range seen {
			delete(seen, k)
		}
		for k := i; k < j && len(items) < cfg.MaxItemsPerTx; k++ {
			t := stream[k].Template
			if !seen[t] {
				seen[t] = true
				items = append(items, t)
			}
		}
		res.Transactions++
		for _, t := range items {
			res.ItemTx[t]++
		}
		for a := 0; a < len(items); a++ {
			for b := a + 1; b < len(items); b++ {
				x, y := items[a], items[b]
				if x > y {
					x, y = y, x
				}
				res.PairTx[PairKey{x, y}]++
			}
		}
	}
}

func emptyResult(cfg Config) *Result {
	return &Result{ItemTx: make(map[int]int), PairTx: make(map[PairKey]int), cfg: cfg}
}

// refMine is Mine with one serial pass of refMineStream over the routers.
func refMine(t *testing.T, events []Event, cfg Config) *Result {
	t.Helper()
	cfg, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	byRouter := make(map[string][]Event)
	for _, e := range events {
		byRouter[e.Router] = append(byRouter[e.Router], e)
	}
	routers := make([]string, 0, len(byRouter))
	for r := range byRouter {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	res := emptyResult(cfg)
	for _, r := range routers {
		stream := byRouter[r]
		sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time.Before(stream[j].Time) })
		refMineStream(stream, cfg, res)
	}
	res.Rules = res.rulesFromStats()
	return res
}

// eventsFrom decodes bytes into one day of events: each byte pair is one
// event, the first byte naming its router (b>>6, one of four) and its
// template (b&0x3F minus one, so template -1 occurs), the second its offset
// from the router's previous event in seconds (b%8, so ties occur).
func eventsFrom(data []byte, templates int) []Event {
	var out []Event
	last := map[string]time.Time{}
	for i := 0; i+1 < len(data); i += 2 {
		router := string(rune('a' + data[i]>>6))
		at, ok := last[router]
		if !ok {
			at = t0
		}
		at = at.Add(time.Duration(data[i+1]%8) * time.Second)
		last[router] = at
		out = append(out, Event{Time: at, Router: router, Template: int(data[i]&0x3F)%templates - 1})
	}
	return out
}

// checkAgainstReference compares the tally with refMineStream on each
// router's stream alone and on all of them through one tally (dense IDs
// persist across a worker's streams), then Mine at one and three workers
// with refMine.
func checkAgainstReference(t *testing.T, events []Event, cfg Config) {
	t.Helper()
	norm, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	byRouter := make(map[string][]Event)
	for _, e := range events {
		byRouter[e.Router] = append(byRouter[e.Router], e)
	}
	routers := make([]string, 0, len(byRouter))
	for r, stream := range byRouter {
		sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time.Before(stream[j].Time) })
		routers = append(routers, r)
	}
	sort.Strings(routers)

	all, allWant := newTally(), emptyResult(norm)
	for _, r := range routers {
		one, got, want := newTally(), emptyResult(norm), emptyResult(norm)
		one.mineStream(byRouter[r], norm)
		one.fold(got)
		refMineStream(byRouter[r], norm, want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("router %s, cap %d: tally %+v, reference %+v", r, norm.MaxItemsPerTx, got, want)
		}
		all.mineStream(byRouter[r], norm)
		refMineStream(byRouter[r], norm, allWant)
	}
	allGot := emptyResult(norm)
	all.fold(allGot)
	if !reflect.DeepEqual(allGot, allWant) {
		t.Fatalf("one tally over %d routers, cap %d: %+v, reference %+v", len(routers), norm.MaxItemsPerTx, allGot, allWant)
	}

	want := refMine(t, events, cfg)
	for _, workers := range []int{1, 3} {
		cfg.Pool = par.New(workers)
		got, err := Mine(events, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.cfg.Pool = cfg.Pool
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Mine at %d workers, cap %d: %+v, reference %+v", workers, norm.MaxItemsPerTx, got, want)
		}
	}
}

func TestTallyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 2*rng.Intn(400))
		rng.Read(data)
		cfg := Config{
			Window:        time.Duration(1+rng.Intn(60)) * time.Second,
			SPmin:         0.01,
			ConfMin:       0.3,
			MaxItemsPerTx: 1 + rng.Intn(70),
		}
		checkAgainstReference(t, eventsFrom(data, 1+rng.Intn(64)), cfg)
	}
}

func FuzzMineStream(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 1, 0, 2, 1, 0x41, 3, 0x42, 0, 0, 7}, uint8(63), uint8(0), uint8(10))
	f.Add([]byte{5, 1, 6, 1, 7, 1, 8, 1, 5, 1, 6, 1}, uint8(3), uint8(2), uint8(30))
	f.Fuzz(func(t *testing.T, data []byte, templates, capRaw, windowRaw uint8) {
		if len(data) > 4096 {
			return
		}
		cfg := Config{
			Window:        time.Duration(1+int(windowRaw)%60) * time.Second,
			SPmin:         0.01,
			ConfMin:       0.3,
			MaxItemsPerTx: 1 + int(capRaw)%70,
		}
		checkAgainstReference(t, eventsFrom(data, 1+int(templates)%64), cfg)
	})
}
