package core

import (
	"reflect"
	"sync"
	"testing"

	"syslogdigest/internal/gen"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/locparse"
	"syslogdigest/internal/par"
)

func ck(router, code, detail string) cacheKey {
	return cacheKey{router: router, code: code, detail: detail}
}

func TestMatchCacheBasic(t *testing.T) {
	c := newMatchCache(2)
	if _, ok := c.get(ck("r1", "C", "a")); ok {
		t.Fatal("hit on empty cache")
	}
	val := cacheVal{template: 7, info: locparse.Info{
		Primary: locdict.RouterLoc("r1"),
		All:     []locdict.Location{locdict.RouterLoc("r1")},
	}}
	if ev := c.put(ck("r1", "C", "a"), val); ev {
		t.Fatal("eviction on insert into empty cache")
	}
	got, ok := c.get(ck("r1", "C", "a"))
	if !ok || got.template != 7 || !reflect.DeepEqual(got.info, val.info) {
		t.Fatalf("get = %+v ok=%v, want %+v", got, ok, val)
	}
	// The key is the full (router, code, detail) triple.
	if _, ok := c.get(ck("r2", "C", "a")); ok {
		t.Fatal("hit across routers")
	}
	// Re-inserting the same key overwrites in place: no eviction, no growth.
	if ev := c.put(ck("r1", "C", "a"), val); ev {
		t.Fatal("eviction on idempotent overwrite")
	}
	if n := c.len(); n != 1 {
		t.Fatalf("len = %d after overwrite, want 1", n)
	}
}

func TestMatchCacheClockEviction(t *testing.T) {
	c := newMatchCache(2)
	c.put(ck("r", "C", "a"), cacheVal{template: 1})
	c.put(ck("r", "C", "b"), cacheVal{template: 2})
	// Touch "a": its reference bit gives it a second chance.
	c.get(ck("r", "C", "a"))
	if ev := c.put(ck("r", "C", "c"), cacheVal{template: 3}); !ev {
		t.Fatal("insert into full cache reported no eviction")
	}
	if n := c.len(); n != 2 {
		t.Fatalf("len = %d after eviction, want capacity 2", n)
	}
	if _, ok := c.get(ck("r", "C", "a")); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.get(ck("r", "C", "b")); ok {
		t.Fatal("cold entry survived eviction")
	}
	if v, ok := c.get(ck("r", "C", "c")); !ok || v.template != 3 {
		t.Fatalf("new entry missing after eviction: %+v ok=%v", v, ok)
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

// TestAugmentConcurrentSmallCache hammers one tiny shared cache from
// concurrent augment passes (hits, misses and constant evictions) and checks
// every result against the cache-disabled reference. Run under -race via
// `make check`, this is both the determinism proof and the data-race probe
// for the cache.
func TestAugmentConcurrentSmallCache(t *testing.T) {
	kb, ds := mutableKB(t, gen.DatasetA)
	msgs := ds.Messages
	if len(msgs) > 3000 {
		msgs = msgs[:3000]
	}
	kb.SetMatchCache(-1)
	want := kb.AugmentAll(msgs)
	kb.SetMatchCache(64) // far below the working set: evicts constantly

	const goroutines = 4
	got := make([][]PlusMessage, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = kb.augmentWith(par.New(2), msgs)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if len(got[g]) != len(want) {
			t.Fatalf("goroutine %d: %d results, want %d", g, len(got[g]), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Fatalf("goroutine %d msg %d: cached augment diverged:\n got %+v\nwant %+v",
					g, i, got[g][i], want[i])
			}
		}
	}
}
