package serve

import (
	"hash/fnv"
	"math"
	"sync"
)

// resultCache memoizes completed job results keyed by the canonical
// Request.Key(). The cached value is the encoded result JSON, with the
// Result.Events of the run that produced it, so a hit is served byte-for-byte
// as the original run - the cache can never introduce a divergence between a
// served and a directly-computed result, because keys are injective over
// every Result-determining field and the engines are deterministic. Only
// successful runs are cached; failures always re-run.
//
// Membership is admission by decayed frequency x cost. get counts one
// request for its key before the lookup (hits, misses and single-flight
// joins alike), for resident and non-resident keys, in a history keyed by
// the FNV-1a hash of the key: a collision merges two keys' counts, which can
// change what is admitted but never what is served, because bodies are
// looked up by the full key. Every 16 x capacity requests every count halves
// and zero counts are dropped, so the history holds at most 32 x capacity
// keys and a once-hot key is forgotten. A key's score is count x cost, where
// cost is the Result.Events of the run that produced it - what a miss on
// this key would have to simulate again. Events, never wall time, so which
// keys are resident is a pure function of the request sequence. A full cache
// admits a result only if its score is strictly above the lowest resident
// score (oldest insertion first on ties), which it then evicts; otherwise
// the result is refused, so a one-shot key cannot push out a popular one.
type resultCache struct {
	mu                  sync.Mutex
	cap                 int
	m                   map[string]*cacheEntry
	freq                map[uint64]int64 // decayed request count per key hash
	seen                int              // requests counted since the last halving
	seq                 uint64
	evictions, refusals int64
}

type cacheEntry struct {
	body   []byte
	events int64 // the run's Result.Events: its cost
	hash   uint64
	seq    uint64 // insertion order, the tie-break
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, m: make(map[string]*cacheEntry, max(capacity, 0)), freq: make(map[uint64]int64)}
}

func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// score is count x cost, saturating. A run that reports no events (a test
// stub) still costs one, so frequency keeps ordering such entries.
func (c *resultCache) score(hash uint64, events int64) int64 {
	n, cost := c.freq[hash], max(events, 1)
	if n > math.MaxInt64/cost {
		return math.MaxInt64
	}
	return n * cost
}

// get counts a request for key, then returns its cached encoding and the
// events its run cost. Callers must treat the returned body as immutable.
func (c *resultCache) get(key string) ([]byte, int64, bool) {
	if c == nil || c.cap <= 0 {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.freq[keyHash(key)]++
	if c.seen++; c.seen >= 16*c.cap {
		for h, n := range c.freq {
			if n /= 2; n == 0 {
				delete(c.freq, h)
			} else {
				c.freq[h] = n
			}
		}
		c.seen = 0
	}
	e, ok := c.m[key]
	if !ok {
		return nil, 0, false
	}
	return e.body, e.events, true
}

// add offers a completed result. Below capacity it is inserted; at capacity
// it replaces the lowest-scoring resident only if it scores strictly higher,
// and is refused otherwise. Adding a resident key replaces its value.
func (c *resultCache) add(key string, body []byte, events int64) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.body, e.events = body, events
		return
	}
	h := keyHash(key)
	if len(c.m) >= c.cap {
		// A linear scan: a miss has just cost a whole simulation.
		var victim string
		var v *cacheEntry
		var low int64
		for k, e := range c.m {
			if s := c.score(e.hash, e.events); v == nil || s < low || s == low && e.seq < v.seq {
				victim, v, low = k, e, s
			}
		}
		if c.score(h, events) <= low {
			c.refusals++
			return
		}
		delete(c.m, victim)
		c.evictions++
	}
	c.seq++
	c.m[key] = &cacheEntry{body: body, events: events, hash: h, seq: c.seq}
}

// counts reports the number of cached results, how many have been evicted
// to make room and how many were refused admission.
func (c *resultCache) counts() (entries int, evictions, refusals int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.evictions, c.refusals
}
