package serve

import (
	"container/heap"
	"math"
	"sync"

	"alltoall/internal/collective"
)

// resultCache memoizes completed job results keyed by the canonical
// Request.Key(). The cached value is the encoded result JSON (plus the
// Result struct for job-status rendering), so a hit is served byte-for-byte
// as the original run - the cache can never introduce a divergence between a
// served and a directly-computed result, because keys are injective over
// every Result-determining field and the engines are deterministic. Only
// successful runs are cached; failures always re-run.
//
// Eviction is GreedyDual-Size-Frequency with every entry of size one: an
// entry's priority is clock + hits x cost, where cost is the Result.Events
// of the run that produced it - what a miss on this key would have to
// simulate again. Events, never wall time, so which keys are resident is a
// pure function of the request sequence. Eviction removes the minimum
// priority and advances clock to it: entries inserted or hit later start
// above everything evicted so far, which is the ageing that lets a once-hot
// key leave. Equal priorities leave in insertion order.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	m         map[string]*cacheEntry
	h         entryHeap
	clock     int64
	seq       uint64
	evictions int64
}

type cacheEntry struct {
	key  string
	body []byte
	res  collective.Result

	hits int64 // 1 at insertion, +1 per get
	pri  int64
	seq  uint64 // insertion order, the tie-break
	idx  int    // position in the heap
}

// entryHeap is a min-heap on (pri, seq) for container/heap.
type entryHeap []*cacheEntry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *entryHeap) Push(x any) {
	e := x.(*cacheEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, m: make(map[string]*cacheEntry, max(capacity, 0))}
}

// priority is clock + hits x cost, saturating. A run that reports no events
// (a test stub) still costs one, so frequency keeps ordering such entries.
func (c *resultCache) priority(e *cacheEntry) int64 {
	cost := max(e.res.Events, 1)
	if e.hits > (math.MaxInt64-c.clock)/cost {
		return math.MaxInt64
	}
	return c.clock + e.hits*cost
}

// get returns the cached encoding and Result for a key and counts the hit
// towards its priority. Callers must treat the returned body as immutable.
func (c *resultCache) get(key string) ([]byte, collective.Result, bool) {
	if c == nil || c.cap <= 0 {
		return nil, collective.Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil, collective.Result{}, false
	}
	e.hits++
	e.pri = c.priority(e)
	heap.Fix(&c.h, e.idx)
	return e.body, e.res, true
}

// add inserts a completed result, evicting minimum-priority entries beyond
// capacity; adding a resident key replaces its value and keeps its hits.
func (c *resultCache) add(key string, body []byte, res collective.Result) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.body, e.res = body, res
		e.pri = c.priority(e)
		heap.Fix(&c.h, e.idx)
		return
	}
	for len(c.h) >= c.cap {
		victim := heap.Pop(&c.h).(*cacheEntry)
		delete(c.m, victim.key)
		c.clock = victim.pri
		c.evictions++
	}
	c.seq++
	e := &cacheEntry{key: key, body: body, res: res, hits: 1, seq: c.seq}
	e.pri = c.priority(e)
	c.m[key] = e
	heap.Push(&c.h, e)
}

// len reports the number of cached results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.h)
}

// evicted reports how many results have been evicted to make room.
func (c *resultCache) evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
