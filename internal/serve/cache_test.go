package serve

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"alltoall/internal/collective"
)

// costing is a Result whose only content is its cost to the cache policy.
func costing(events int64) collective.Result { return collective.Result{Events: events} }

func resident(c *resultCache, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[key]
	return ok
}

// request is what the scheduler does with one job: a lookup, and on a miss
// the simulated result offered to the cache.
func request(c *resultCache, key string, events int64) {
	if _, _, ok := c.get(key); !ok {
		c.add(key, []byte(key), costing(events))
	}
}

// scoreOf is a resident key's admission score.
func scoreOf(c *resultCache, key string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.m[key]
	return c.score(e.hash, e.res)
}

func TestResultCachePolicy(t *testing.T) {
	t.Run("scan resistance", func(t *testing.T) {
		// One expensive result and a flood of cheap one-shot keys, several
		// times the capacity: an LRU would have flushed the expensive one
		// after cap insertions.
		c := newResultCache(8)
		request(c, "big", 1_000_000)
		for i := 0; i < 100; i++ {
			request(c, fmt.Sprintf("cheap-%d", i), 10)
			if n, _, _ := c.counts(); n > 8 {
				t.Fatalf("len %d exceeds capacity 8 after %d insertions", n, i+1)
			}
		}
		if body, _, ok := c.get("big"); !ok || string(body) != "big" {
			t.Errorf("expensive entry flushed by cheap one-shot keys: %q %v", body, ok)
		}
		// The first seven cheap keys fill the cache; each later one scores
		// no higher than the resident it would replace.
		if _, evicted, refused := c.counts(); evicted != 0 || refused != 93 {
			t.Errorf("evicted %d refused %d, want 0 and 93 (101 results offered to 8 slots)", evicted, refused)
		}
	})

	t.Run("ageing", func(t *testing.T) {
		// An expensive entry nobody asks for again leaves once halving has
		// taken its count to zero: after at most ceil(log2 count)+1 windows
		// of 16 x capacity requests, and not while it still counts.
		const capacity, count = 4, 40
		c := newResultCache(capacity)
		for i := 0; i < count; i++ {
			request(c, "big", 100)
		}
		window := 16 * capacity
		limit := bits.Len(count-1) + 1 // ceil(log2 count) + 1
		for i := 0; resident(c, "big"); i++ {
			if i > limit*window {
				t.Fatalf("idle entry with count %d still resident after %d windows", count, limit)
			}
			request(c, fmt.Sprintf("other-%d", i), 100)
		}
		if n := c.freq[keyHash("big")]; n != 0 {
			t.Errorf("big evicted with count %d, want 0", n)
		}
	})

	t.Run("tie-break", func(t *testing.T) {
		// Equal lowest scores leave oldest first, whatever the key order.
		c := newResultCache(3)
		for _, k := range []string{"m", "z", "a"} {
			request(c, k, 5)
		}
		for i, victim := range []string{"m", "z", "a"} {
			later := fmt.Sprintf("later-%d", i)
			request(c, later, 5) // ties the residents: refused
			if !resident(c, victim) || resident(c, later) {
				t.Fatalf("insertion %d: a candidate tying the lowest score was admitted", i)
			}
			request(c, later, 5) // now scores 10
			if resident(c, victim) || !resident(c, later) {
				t.Errorf("insertion %d: %q still resident, want it evicted in insertion order", i, victim)
			}
		}
	})

	t.Run("frequency", func(t *testing.T) {
		// At equal cost the entry that was asked for again outlives the rest.
		c := newResultCache(2)
		request(c, "a", 5)
		request(c, "b", 5)
		if _, _, ok := c.get("a"); !ok {
			t.Fatal("a evicted early")
		}
		request(c, "c", 5)
		request(c, "c", 5)
		if resident(c, "b") || !resident(c, "a") {
			t.Error("the unrequested entry survived the requested one")
		}
	})

	t.Run("refresh", func(t *testing.T) {
		c := newResultCache(2)
		request(c, "a", 10)
		c.get("a")
		c.add("a", []byte("new"), costing(20))
		if n, _, _ := c.counts(); n != 1 {
			t.Fatalf("len = %d after re-adding a resident key, want 1", n)
		}
		body, res, ok := c.get("a")
		if !ok || string(body) != "new" || res.Events != 20 {
			t.Errorf("refreshed entry = %q events %d %v, want new/20", body, res.Events, ok)
		}
		// Three requests, at the new cost.
		if s := scoreOf(c, "a"); s != 60 {
			t.Errorf("score %d, want 3 requests x 20 events = 60", s)
		}
	})

	t.Run("saturation", func(t *testing.T) {
		c := newResultCache(2)
		request(c, "huge", math.MaxInt64/2)
		c.get("huge")
		c.get("huge")
		if s := scoreOf(c, "huge"); s != math.MaxInt64 {
			t.Errorf("score %d after count x cost overflowed, want it pinned at MaxInt64", s)
		}
	})

	t.Run("disabled", func(t *testing.T) {
		for _, capacity := range []int{0, -1} {
			c := newResultCache(capacity)
			c.add("x", []byte("X"), costing(1))
			if _, _, ok := c.get("x"); ok || len(c.m) != 0 {
				t.Errorf("cap %d: disabled cache kept an entry", capacity)
			}
		}
	})
}

// TestResultCacheShiftingPopularity moves all traffic from one hot set to a
// disjoint one of the same cost. The old set's counts halve every window, so
// after bits.Len(highest count) windows they are zero and the next request
// of each new key displaces one: the new set is resident within one more
// window, whatever the history was tuned on.
func TestResultCacheShiftingPopularity(t *testing.T) {
	const capacity = 8
	window := 16 * capacity
	c := newResultCache(capacity)
	serve := func(set string, requests int) {
		for i := 0; i < requests; i++ {
			request(c, fmt.Sprintf("%s-%d", set, i%capacity), 1000)
		}
	}
	allResident := func(set string) bool {
		for i := 0; i < capacity; i++ {
			if !resident(c, fmt.Sprintf("%s-%d", set, i)) {
				return false
			}
		}
		return true
	}
	// Long enough for the old set's counts to reach their steady state.
	serve("old", 20*window)
	if !allResident("old") {
		t.Fatal("the hot set is not resident after 20 windows of its traffic")
	}
	var highest int64
	for i := 0; i < capacity; i++ {
		highest = max(highest, c.freq[keyHash(fmt.Sprintf("old-%d", i))])
	}
	bound := bits.Len64(uint64(highest)) + 1
	for w := 1; ; w++ {
		serve("new", window)
		if allResident("new") {
			t.Logf("new set resident after %d windows (bound %d, old counts up to %d)", w, bound, highest)
			break
		}
		if w >= bound {
			t.Fatalf("new set not resident after %d windows (old counts up to %d)", w, highest)
		}
	}
}

// modelCache is the policy written the slow, obvious way: counts by full
// key, halved by a loop, and the victim found by scanning a slice. The cache
// must agree with it operation for operation.
type modelCache struct {
	cap                 int
	seen                int
	seq                 uint64
	evictions, refusals int64
	counts              map[string]int64
	entries             []modelEntry
}

type modelEntry struct {
	key, body string
	cost      int64
	seq       uint64
}

func newModelCache(capacity int) *modelCache {
	return &modelCache{cap: capacity, counts: map[string]int64{}}
}

func (m *modelCache) score(key string, cost int64) int64 {
	n := m.counts[key]
	if n != 0 && n*cost/n != cost {
		return math.MaxInt64
	}
	return n * cost
}

func (m *modelCache) find(key string) int {
	for i := range m.entries {
		if m.entries[i].key == key {
			return i
		}
	}
	return -1
}

func (m *modelCache) get(key string) (string, bool) {
	m.counts[key]++
	m.seen++
	if m.seen == 16*m.cap {
		for k := range m.counts {
			m.counts[k] /= 2
			if m.counts[k] == 0 {
				delete(m.counts, k)
			}
		}
		m.seen = 0
	}
	if i := m.find(key); i >= 0 {
		return m.entries[i].body, true
	}
	return "", false
}

func (m *modelCache) add(key, body string, cost int64) {
	cost = max(cost, 1)
	if i := m.find(key); i >= 0 {
		m.entries[i].body, m.entries[i].cost = body, cost
		return
	}
	if len(m.entries) == m.cap {
		v := 0
		for i, e := range m.entries {
			w := m.entries[v]
			if s, sv := m.score(e.key, e.cost), m.score(w.key, w.cost); s < sv || s == sv && e.seq < w.seq {
				v = i
			}
		}
		if m.score(key, cost) <= m.score(m.entries[v].key, m.entries[v].cost) {
			m.refusals++
			return
		}
		m.entries = append(m.entries[:v], m.entries[v+1:]...)
		m.evictions++
	}
	m.seq++
	m.entries = append(m.entries, modelEntry{key: key, body: body, cost: cost, seq: m.seq})
}

// agree compares the cache with the model: residency, each resident's body,
// score and insertion order, the refused and evicted counts, and the bound
// on the request history.
func agree(c *resultCache, m *modelCache) error {
	entries, evictions, refusals := c.counts()
	if entries != len(m.entries) || evictions != m.evictions || refusals != m.refusals {
		return fmt.Errorf("entries/evictions/refusals %d/%d/%d, model %d/%d/%d",
			entries, evictions, refusals, len(m.entries), m.evictions, m.refusals)
	}
	for _, e := range m.entries {
		got := c.m[e.key]
		if got == nil || string(got.body) != e.body || got.seq != e.seq || c.score(got.hash, got.res) != m.score(e.key, e.cost) {
			return fmt.Errorf("%s resident in the model as %+v (score %d), cache has %+v", e.key, e, m.score(e.key, e.cost), got)
		}
	}
	if len(c.freq) != len(m.counts) || len(c.freq) > 32*c.cap {
		return fmt.Errorf("history holds %d keys, model %d, bound %d", len(c.freq), len(m.counts), 32*c.cap)
	}
	return nil
}

// costs span 0 (a stub result) to near saturation, with plenty of ties.
var modelCosts = []int64{0, 1, 7, 7, 100, 10_000, math.MaxInt64 / 3}

func TestResultCacheModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(12)
		keys := capacity * (1 + rng.Intn(8))
		c, m := newResultCache(capacity), newModelCache(capacity)
		for op := 0; op < 5000; op++ {
			// Skewed popularity; a miss is usually followed by its result,
			// as in the scheduler, and sometimes a result arrives unasked.
			key := fmt.Sprintf("k%d", int(float64(keys)*rng.Float64()*rng.Float64()))
			body, _, ok := c.get(key)
			want, wantOK := m.get(key)
			if ok != wantOK || string(body) != want {
				t.Fatalf("seed %d op %d: get(%s) = %q %v, model %q %v", seed, op, key, body, ok, want, wantOK)
			}
			if !ok || rng.Intn(8) == 0 {
				if rng.Intn(4) == 0 {
					key = fmt.Sprintf("k%d", rng.Intn(keys))
				}
				body := fmt.Sprintf("%s@%d", key, op)
				cost := modelCosts[rng.Intn(len(modelCosts))]
				c.add(key, []byte(body), costing(cost))
				m.add(key, body, cost)
			}
			if err := agree(c, m); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// FuzzResultCache drives the cache and the model from raw bytes, two bytes
// an operation: the first picks get or add and the key, the second the cost
// of an add. The first byte of the input sets the capacity.
func FuzzResultCache(f *testing.F) {
	f.Add([]byte{2, 0x00, 0, 0x80, 3, 0x01, 0, 0x81, 1, 0x02, 0, 0x82, 5})
	f.Add([]byte{1, 0x00, 0, 0x00, 0, 0x80, 6, 0x01, 0, 0x81, 1, 0x81, 1}) // saturation
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%8)
		c, m := newResultCache(capacity), newModelCache(capacity)
		for i := 1; i+1 < len(data); i += 2 {
			key := fmt.Sprintf("k%d", data[i]&0x3f)
			if data[i]&0x80 == 0 {
				body, _, ok := c.get(key)
				if want, wantOK := m.get(key); ok != wantOK || string(body) != want {
					t.Fatalf("op %d: get(%s) = %q %v, model %q %v", i, key, body, ok, want, wantOK)
				}
			} else {
				body := fmt.Sprintf("%s@%d", key, i)
				cost := modelCosts[int(data[i+1])%len(modelCosts)]
				c.add(key, []byte(body), costing(cost))
				m.add(key, body, cost)
			}
			if err := agree(c, m); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
}
