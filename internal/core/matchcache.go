package core

import (
	"hash/maphash"
	"sync"

	"syslogdigest/internal/locparse"
)

// DefaultMatchCache is the match-cache capacity unless SetMatchCache sets
// another.
const DefaultMatchCache = 8192

// cacheKey identifies one augmentation outcome. The detail alone is not
// enough: location grounding is relative to the originating router (the same
// interface token resolves differently per router, and the primary location
// degrades to the router itself), so the router is part of the key. The
// three strings are hashed where they lie — no concatenation allocation per
// lookup.
type cacheKey struct {
	router, code, detail string
}

// cacheVal is everything Augment computes for a message beyond its raw
// fields: the matched template and the parsed-location outcome. Slices
// inside info are shared by every cache hit; see KnowledgeBase.Augment for
// the read-only contract.
type cacheVal struct {
	template int
	info     locparse.Info
}

// matchCache is a bounded repeat-message cache with clock (second-chance)
// eviction: a fixed slot ring, a reference bit set on hit, and a hand that
// clears reference bits until it finds a cold slot to evict. Clock keeps
// hot entries resident like LRU but needs no per-access list surgery — a
// hit is one map lookup and one bool store under a short critical section.
//
// The caller hashes a key once, outside the lock (hash), and hands the hash
// to get and, on a miss, to put: the index maps hashes to slots, so no
// access rehashes the three strings. Each slot keeps its full key, so a
// hash shared by two keys is a miss for the one not resident, and its put
// takes that slot over.
//
// The cache is an optimization, never a semantic: values are exactly what
// the miss path would compute from the immutable knowledge base, so results
// are byte-identical whatever the hit pattern or eviction history. Safe for
// concurrent use.
type matchCache struct {
	seed  maphash.Seed
	mu    sync.Mutex
	idx   map[uint64]int32
	slots []cacheSlot
	hand  int32
}

type cacheSlot struct {
	key  cacheKey
	hash uint64
	val  cacheVal
	ref  bool
	used bool
}

// newMatchCache builds a cache with the given capacity (entries); capacity
// must be positive.
func newMatchCache(capacity int) *matchCache {
	return &matchCache{
		seed:  maphash.MakeSeed(),
		idx:   make(map[uint64]int32, capacity),
		slots: make([]cacheSlot, capacity),
	}
}

// hash is key's index hash, the h that get and put take. It needs no lock.
// Each string is hashed where it lies (a maphash.Hash would copy the
// three into its buffer first, which costs more than the hashing); two
// different odd multipliers keep equal or swapped router and code values
// from cancelling out.
func (c *matchCache) hash(key cacheKey) uint64 {
	h := maphash.String(c.seed, key.detail)
	h ^= maphash.String(c.seed, key.router) * 0x9e3779b97f4a7c15
	h ^= maphash.String(c.seed, key.code) * 0xc2b2ae3d27d4eb4f
	return h
}

// get looks key up under its hash h. On a hit it marks the slot recently
// used and copies the cached template and locations into pm.
func (c *matchCache) get(key cacheKey, h uint64, pm *PlusMessage) bool {
	c.mu.Lock()
	i, ok := c.idx[h]
	if !ok || c.slots[i].key != key {
		c.mu.Unlock()
		return false
	}
	s := &c.slots[i]
	s.ref = true
	pm.Template = s.val.template
	pm.Loc = s.val.info.Primary
	pm.AllLocs = s.val.info.All
	pm.Peers = s.val.info.PeerRouters
	c.mu.Unlock()
	return true
}

// put inserts key → val, where h is key's hash, reporting whether an
// existing entry was evicted. Concurrent callers may race to insert the
// same key; the duplicate insert overwrites with an identical value, so the
// race is benign. A different key resident under h is evicted in place.
func (c *matchCache) put(key cacheKey, h uint64, val cacheVal) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.idx[h]; ok {
		s := &c.slots[i]
		if s.key == key {
			s.val = val
			s.ref = true
			return false
		}
		*s = cacheSlot{key: key, hash: h, val: val, used: true}
		return true
	}
	// Advance the hand to a victim: free slot, or the first slot whose
	// reference bit is already clear (clearing bits as it passes). With
	// every bit set this degenerates to FIFO after one lap, so the walk is
	// bounded by 2×capacity.
	for {
		s := &c.slots[c.hand]
		i := c.hand
		c.hand = (c.hand + 1) % int32(len(c.slots))
		if !s.used {
			*s = cacheSlot{key: key, hash: h, val: val, used: true}
			c.idx[h] = i
			return false
		}
		if s.ref {
			s.ref = false
			continue
		}
		delete(c.idx, s.hash)
		*s = cacheSlot{key: key, hash: h, val: val, used: true}
		c.idx[h] = i
		return true
	}
}

// len returns the number of resident entries (tests only).
func (c *matchCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idx)
}
