package serve

import (
	"fmt"
	"math"
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

func TestResultCachePolicy(t *testing.T) {
	t.Run("scan resistance", func(t *testing.T) {
		// One expensive result and a flood of cheap one-shot keys, several
		// times the capacity: an LRU would have flushed the expensive one
		// after cap insertions.
		c := newResultCache(8)
		c.add("big", []byte("BIG"), costing(1_000_000))
		for i := 0; i < 100; i++ {
			c.add(fmt.Sprintf("cheap-%d", i), []byte("c"), costing(10))
			if n := c.len(); n > 8 {
				t.Fatalf("len %d exceeds capacity 8 after %d insertions", n, i+1)
			}
		}
		if body, _, ok := c.get("big"); !ok || string(body) != "BIG" {
			t.Errorf("expensive entry flushed by cheap one-shot keys: %q %v", body, ok)
		}
		if got := c.evicted(); got != 93 {
			t.Errorf("evicted %d, want 93 (101 insertions into 8 slots)", got)
		}
	})

	t.Run("ageing", func(t *testing.T) {
		// An expensive entry nobody asks for again leaves once the clock,
		// pushed up by every eviction, passes its priority - and not before.
		c := newResultCache(4)
		c.add("big", nil, costing(100))
		for i := 0; resident(c, "big"); i++ {
			if i > 1000 {
				t.Fatal("idle expensive entry never aged out")
			}
			c.add(fmt.Sprintf("cheap-%d", i), nil, costing(10))
		}
		if c.clock < 100 {
			t.Errorf("expensive entry (priority 100) evicted at clock %d", c.clock)
		}
	})

	t.Run("tie-break", func(t *testing.T) {
		// Equal priorities leave oldest first, whatever the key order.
		c := newResultCache(3)
		for _, k := range []string{"m", "z", "a"} {
			c.add(k, nil, costing(5))
		}
		for i, victim := range []string{"m", "z", "a"} {
			c.add(fmt.Sprintf("later-%d", i), nil, costing(5))
			if resident(c, victim) {
				t.Errorf("insertion %d: %q still resident, want it evicted in insertion order", i, victim)
			}
		}
	})

	t.Run("frequency", func(t *testing.T) {
		// At equal cost the entry that was asked for again outlives the rest.
		c := newResultCache(2)
		c.add("a", []byte("A"), costing(5))
		c.add("b", []byte("B"), costing(5))
		if _, _, ok := c.get("a"); !ok {
			t.Fatal("a evicted early")
		}
		c.add("c", []byte("C"), costing(5))
		if resident(c, "b") || !resident(c, "a") {
			t.Error("the unrequested entry survived the requested one")
		}
	})

	t.Run("refresh", func(t *testing.T) {
		c := newResultCache(2)
		c.add("a", []byte("old"), costing(10))
		c.get("a")
		c.add("a", []byte("new"), costing(20))
		if c.len() != 1 {
			t.Fatalf("len = %d after re-adding a resident key, want 1", c.len())
		}
		body, res, ok := c.get("a")
		if !ok || string(body) != "new" || res.Events != 20 {
			t.Errorf("refreshed entry = %q events %d %v, want new/20", body, res.Events, ok)
		}
		// Two gets and the insertion, at the new cost.
		if e := c.m["a"]; e.hits != 3 || e.pri != 60 {
			t.Errorf("hits %d priority %d, want 3 and 60", e.hits, e.pri)
		}
	})

	t.Run("saturation", func(t *testing.T) {
		c := newResultCache(2)
		c.add("huge", nil, costing(math.MaxInt64/2))
		c.get("huge")
		c.get("huge")
		if e := c.m["huge"]; e.pri != math.MaxInt64 {
			t.Errorf("priority %d after hits x cost overflowed, want it pinned at MaxInt64", e.pri)
		}
	})

	t.Run("disabled", func(t *testing.T) {
		for _, capacity := range []int{0, -1} {
			c := newResultCache(capacity)
			c.add("x", []byte("X"), costing(1))
			if _, _, ok := c.get("x"); ok || c.len() != 0 {
				t.Errorf("cap %d: disabled cache kept an entry", capacity)
			}
		}
	})
}

// modelCache is the policy written the slow, obvious way: a slice scanned
// for its minimum. The heap must agree with it operation for operation.
type modelCache struct {
	cap       int
	clock     int64
	seq       uint64
	evictions int64
	entries   []modelEntry
}

type modelEntry struct {
	key             string
	body            string
	cost, hits, pri int64
	seq             uint64
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
	i := m.find(key)
	if i < 0 {
		return "", false
	}
	e := &m.entries[i]
	e.hits++
	e.pri = m.clock + e.hits*e.cost
	return e.body, true
}

func (m *modelCache) add(key, body string, cost int64) {
	cost = max(cost, 1)
	if i := m.find(key); i >= 0 {
		e := &m.entries[i]
		e.body, e.cost = body, cost
		e.pri = m.clock + e.hits*cost
		return
	}
	for len(m.entries) >= m.cap {
		v := 0
		for i, e := range m.entries {
			if w := m.entries[v]; e.pri < w.pri || e.pri == w.pri && e.seq < w.seq {
				v = i
			}
		}
		m.clock = m.entries[v].pri
		m.entries = append(m.entries[:v], m.entries[v+1:]...)
		m.evictions++
	}
	m.seq++
	m.entries = append(m.entries, modelEntry{key: key, body: body, cost: cost, hits: 1, pri: m.clock + cost, seq: m.seq})
}

func TestResultCacheModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(12)
		keys := capacity * (1 + rng.Intn(4))
		c := newResultCache(capacity)
		m := &modelCache{cap: capacity}
		for op := 0; op < 3000; op++ {
			// Skewed popularity, and costs spanning 0 (a stub result) to 10^4
			// with plenty of ties.
			key := fmt.Sprintf("k%d", int(float64(keys)*rng.Float64()*rng.Float64()))
			if rng.Intn(3) > 0 {
				body, _, ok := c.get(key)
				want, wantOK := m.get(key)
				if ok != wantOK || string(body) != want {
					t.Fatalf("seed %d op %d: get(%s) = %q %v, model %q %v", seed, op, key, body, ok, want, wantOK)
				}
			} else {
				body := fmt.Sprintf("%s@%d", key, op)
				cost := []int64{0, 1, 7, 7, 100, 10_000}[rng.Intn(6)]
				c.add(key, []byte(body), costing(cost))
				m.add(key, body, cost)
			}
			if c.len() != len(m.entries) || c.len() > capacity {
				t.Fatalf("seed %d op %d: len %d, model %d, capacity %d", seed, op, c.len(), len(m.entries), capacity)
			}
		}
		for _, e := range m.entries {
			got := c.m[e.key]
			if got == nil || got.pri != e.pri || got.hits != e.hits || got.seq != e.seq {
				t.Errorf("seed %d: %s resident in the model as %+v, cache has %+v", seed, e.key, e, got)
			}
		}
		if c.clock != m.clock || c.evicted() != m.evictions {
			t.Errorf("seed %d: clock %d evictions %d, model %d and %d", seed, c.clock, c.evicted(), m.clock, m.evictions)
		}
	}
}
