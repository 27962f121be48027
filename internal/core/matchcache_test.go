package core

import (
	"reflect"
	"sync"
	"testing"

	"syslogdigest/internal/gen"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/locparse"
	"syslogdigest/internal/obs"
)

func ck(router, code, detail string) cacheKey {
	return cacheKey{router: router, code: code, detail: detail}
}

// get and put access c as Augment does, under the key's own hash; get
// returns what a hit copies into the message.
func get(c *matchCache, key cacheKey) (cacheVal, bool) {
	var pm PlusMessage
	ok := c.get(key, c.hash(key), &pm)
	info := locparse.Info{Primary: pm.Loc, All: pm.AllLocs, PeerRouters: pm.Peers}
	return cacheVal{template: pm.Template, info: info}, ok
}

func put(c *matchCache, key cacheKey, val cacheVal) bool {
	return c.put(key, c.hash(key), val)
}

func TestMatchCacheBasic(t *testing.T) {
	c := newMatchCache(2)
	if _, ok := get(c, ck("r1", "C", "a")); ok {
		t.Fatal("hit on empty cache")
	}
	val := cacheVal{template: 7, info: locparse.Info{
		Primary: locdict.RouterLoc("r1"),
		All:     []locdict.Location{locdict.RouterLoc("r1")},
	}}
	if ev := put(c, ck("r1", "C", "a"), val); ev {
		t.Fatal("eviction on insert into empty cache")
	}
	got, ok := get(c, ck("r1", "C", "a"))
	if !ok || got.template != 7 || !reflect.DeepEqual(got.info, val.info) {
		t.Fatalf("get = %+v ok=%v, want %+v", got, ok, val)
	}
	// The key is the full (router, code, detail) triple.
	if _, ok := get(c, ck("r2", "C", "a")); ok {
		t.Fatal("hit across routers")
	}
	// Re-inserting the same key overwrites in place: no eviction, no growth.
	if ev := put(c, ck("r1", "C", "a"), val); ev {
		t.Fatal("eviction on idempotent overwrite")
	}
	if n := c.len(); n != 1 {
		t.Fatalf("len = %d after overwrite, want 1", n)
	}
}

func TestMatchCacheClockEviction(t *testing.T) {
	c := newMatchCache(2)
	put(c, ck("r", "C", "a"), cacheVal{template: 1})
	put(c, ck("r", "C", "b"), cacheVal{template: 2})
	// Touch "a": its reference bit gives it a second chance.
	get(c, ck("r", "C", "a"))
	if ev := put(c, ck("r", "C", "c"), cacheVal{template: 3}); !ev {
		t.Fatal("insert into full cache reported no eviction")
	}
	if n := c.len(); n != 2 {
		t.Fatalf("len = %d after eviction, want capacity 2", n)
	}
	if _, ok := get(c, ck("r", "C", "a")); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := get(c, ck("r", "C", "b")); ok {
		t.Fatal("cold entry survived eviction")
	}
	if v, ok := get(c, ck("r", "C", "c")); !ok || v.template != 3 {
		t.Fatalf("new entry missing after eviction: %+v ok=%v", v, ok)
	}
}

// TestMatchCacheHashCollision plants two keys under one hash: the index
// holds one slot per hash, so the resident key's full comparison turns the
// other key into a miss, and putting the other key takes the slot over in
// place, evicting the resident one without growing the cache.
func TestMatchCacheHashCollision(t *testing.T) {
	c := newMatchCache(4)
	a, b := ck("r", "C", "a"), ck("r", "C", "b")
	const h = 42
	other := ck("r", "C", "x")
	put(c, other, cacheVal{template: 9})
	if ev := c.put(a, h, cacheVal{template: 1}); ev {
		t.Fatal("eviction on insert into a cache with free slots")
	}
	slot := c.idx[h]
	var pm PlusMessage
	if c.get(b, h, &pm) {
		t.Fatal("hit for a different key under the same hash")
	}
	if ev := c.put(b, h, cacheVal{template: 2}); !ev {
		t.Fatal("taking over a colliding slot reported no eviction")
	}
	if n := c.len(); n != 2 {
		t.Fatalf("len = %d after the takeover, want 2", n)
	}
	if got := c.idx[h]; got != slot {
		t.Fatalf("colliding key went to slot %d, want the resident's slot %d", got, slot)
	}
	if !c.get(b, h, &pm) || pm.Template != 2 {
		t.Fatalf("get(b) = template %d after the takeover, want 2", pm.Template)
	}
	if v, ok := get(c, other); !ok || v.template != 9 {
		t.Fatalf("the takeover disturbed another entry: %+v ok=%v", v, ok)
	}
	if c.get(a, h, &pm) {
		t.Fatal("the evicted key still hits")
	}
}

// TestMatchCacheCounters pins the cache's hit, miss and eviction counts
// for a serial Augment pass over corpus A at the default capacity and at a
// capacity far below the working set. The numbers were recorded at commit
// 15ed498, whose cache indexed by the key itself: one hash per message must
// leave the clock's sequence of hits, misses and evictions unchanged.
func TestMatchCacheCounters(t *testing.T) {
	kb, ds := mutableKB(t, gen.DatasetA)
	for _, tc := range []struct {
		capacity                int
		hits, misses, evictions uint64
	}{
		{0, 17916, 528, 0},
		{64, 17738, 706, 642},
	} {
		kb.SetMatchCache(tc.capacity)
		reg := obs.NewRegistry()
		kb.Instrument(reg)
		for i := range ds.Messages {
			kb.Augment(&ds.Messages[i])
		}
		snap := reg.Snapshot()
		hits, misses := snap.Counter("digest.match.cache.hits"), snap.Counter("digest.match.cache.misses")
		evictions := snap.Counter("digest.match.cache.evictions")
		if hits != tc.hits || misses != tc.misses || evictions != tc.evictions {
			t.Errorf("capacity %d: hits %d misses %d evictions %d, want %d %d %d",
				tc.capacity, hits, misses, evictions, tc.hits, tc.misses, tc.evictions)
		}
	}
}

func TestSetMatchCache(t *testing.T) {
	kb, ds := mutableKB(t, gen.DatasetA)
	kb.Augment(&ds.Messages[0])
	if kb.cache == nil || kb.cache.len() == 0 {
		t.Fatal("default cache not populated by Augment")
	}
	kb.SetMatchCache(-1)
	if kb.cache != nil {
		t.Fatal("negative SetMatchCache did not disable the cache")
	}
	pm := kb.Augment(&ds.Messages[0]) // must still work uncached
	kb.SetMatchCache(4)
	if kb.cache == nil || len(kb.cache.slots) != 4 {
		t.Fatal("SetMatchCache(4) did not size the cache")
	}
	if got := kb.Augment(&ds.Messages[0]); !reflect.DeepEqual(got, pm) {
		t.Fatalf("augment changed across cache reconfiguration:\n%+v\n%+v", got, pm)
	}
}

// TestAugmentConcurrentSmallCache hammers one tiny shared cache from plain
// goroutines calling Augment (hits, misses and constant evictions), each
// starting at a different point of the feed, and checks every result
// against the cache-disabled reference. The pipeline augments on one
// goroutine per caller, but Augment is documented safe for concurrent use:
// run under -race via `make check`, this is the data-race probe for that
// contract.
func TestAugmentConcurrentSmallCache(t *testing.T) {
	kb, ds := mutableKB(t, gen.DatasetA)
	msgs := ds.Messages
	if len(msgs) > 3000 {
		msgs = msgs[:3000]
	}
	kb.SetMatchCache(-1)
	want := kb.AugmentAll(msgs)
	kb.SetMatchCache(64) // far below the working set: evicts constantly

	const goroutines = 8
	got := make([][]PlusMessage, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]PlusMessage, len(msgs))
			for k := range msgs {
				i := (k + g*len(msgs)/goroutines) % len(msgs)
				out[i] = kb.Augment(&msgs[i])
			}
			got[g] = out
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range want {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Fatalf("goroutine %d msg %d: cached augment diverged:\n got %+v\nwant %+v",
					g, i, got[g][i], want[i])
			}
		}
	}
}
