package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// modelEntry is one entry of the reference model of a stripe.
type modelEntry struct {
	res    Result
	stored time.Time
	resID  string
}

// cacheModel is the eviction rule written plainly: a map of entries and a
// slice of their keys in put order, least recently put first.
type cacheModel struct {
	maxAge  time.Duration
	max     int
	entries map[string]modelEntry
	order   []string
}

func (m *cacheModel) drop(key string) {
	delete(m.entries, key)
	m.order = slices.DeleteFunc(m.order, func(k string) bool { return k == key })
}

func (m *cacheModel) get(key string, at time.Time) (Result, time.Duration, bool, bool) {
	en, ok := m.entries[key]
	if !ok {
		return Result{}, 0, false, false
	}
	age := at.Sub(en.stored)
	if age < m.maxAge {
		return en.res, age, true, false
	}
	m.drop(key)
	return Result{}, age, false, true
}

// put stores the entry as the most recently put. A new key at the bound
// first reclaims the expired front of the put order, at most evictProbe
// entries, or, when the front is live, drops the front.
func (m *cacheModel) put(key, resID string, res Result, at time.Time) {
	if _, ok := m.entries[key]; ok {
		m.drop(key)
	} else if len(m.entries) >= m.max {
		for n := 0; n < evictProbe && len(m.order) > 0; n++ {
			front := m.order[0]
			if at.Sub(m.entries[front].stored) < m.maxAge {
				if n == 0 {
					m.drop(front)
				}
				break
			}
			m.drop(front)
		}
	}
	m.entries[key] = modelEntry{res: res, stored: at, resID: resID}
	m.order = append(m.order, key)
}

// putOrder walks the stripe's put-order list from the front, checking its
// links against the map as it goes.
func putOrder(t *testing.T, s *cacheStripe) []string {
	t.Helper()
	var keys []string
	prev := int32(noEntry)
	for i := s.head; i != noEntry; i = s.at(i).next {
		en := s.at(i)
		if en.prev != prev {
			t.Fatalf("entry %q links back to %d, want %d", en.key, en.prev, prev)
		}
		if j, ok := s.entries[en.key]; !ok || j != i {
			t.Fatalf("listed entry %q at %d is mapped to %d (%v)", en.key, i, j, ok)
		}
		keys = append(keys, en.key)
		prev = i
	}
	if s.tail != prev {
		t.Fatalf("tail is %d, the list ends at %d", s.tail, prev)
	}
	if len(keys) != len(s.entries) {
		t.Fatalf("%d entries listed, %d mapped", len(keys), len(s.entries))
	}
	return keys
}

// TestDecisionCacheMatchesModel drives one-stripe caches with random puts,
// lookups, invalidations, flushes and clock steps, some puts carrying an
// out-of-order evaluation time or a superseded generation, and checks
// every answer, every victim and the put order against cacheModel.
func TestDecisionCacheMatchesModel(t *testing.T) {
	const steps = 3000
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxAge := time.Duration(1+rng.Intn(60)) * time.Second
		bound := 1 + rng.Intn(12)
		c := NewDecisionCache(maxAge, bound)
		if len(c.stripes) != 1 || c.stripes[0].max != bound {
			t.Fatalf("seed %d: %d stripes of %d, want one of %d", seed, len(c.stripes), c.stripes[0].max, bound)
		}
		s := &c.stripes[0]
		m := &cacheModel{maxAge: maxAge, max: bound, entries: map[string]modelEntry{}}
		now := cacheT0
		keys := make([]string, bound+1+rng.Intn(2*bound+2))
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", i)
		}
		resIDs := []string{"res-a", "res-b", "res-c"}
		for step := 0; step < steps; step++ {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			}
			key := keys[rng.Intn(len(keys))]
			switch op := rng.Intn(100); {
			case op < 45:
				resID := resIDs[rng.Intn(len(resIDs))]
				res := permitBy(fmt.Sprintf("%s@%d", key, step))
				at := now.Add(-time.Duration(rng.Intn(3)) * maxAge / 4)
				gen := c.Generation()
				stale := rng.Intn(20) == 0
				if stale {
					c.Flush()
					m.entries, m.order = map[string]modelEntry{}, nil
				}
				if stored := c.Put(key, HashString(key), resID, res, at, gen); stored == stale {
					fail("put %s (superseded %v) stored %v", key, stale, stored)
				}
				if !stale {
					m.put(key, resID, res, at)
				}
			case op < 80:
				res, age, ok, expired := c.Get(key, HashString(key), now)
				wres, wage, wok, wexpired := m.get(key, now)
				if res.By != wres.By || age != wage || ok != wok || expired != wexpired {
					fail("get %s: %q age %v ok %v expired %v, model %q age %v ok %v expired %v",
						key, res.By, age, ok, expired, wres.By, wage, wok, wexpired)
				}
			case op < 85:
				drop := map[string]struct{}{resIDs[rng.Intn(len(resIDs))]: {}}
				var want int64
				for k, en := range m.entries {
					if _, hit := drop[en.resID]; hit {
						m.drop(k)
						want++
					}
				}
				if n := c.Invalidate(drop); n != want {
					fail("Invalidate dropped %d, model %d", n, want)
				}
			case op < 87:
				c.Flush()
				m.entries, m.order = map[string]modelEntry{}, nil
			default:
				now = now.Add(time.Duration(rng.Int63n(int64(maxAge / 2))))
			}
			if got := putOrder(t, s); !slices.Equal(got, m.order) {
				fail("put order %v, model %v", got, m.order)
			}
		}
	}
}

// TestDecisionCacheRePutKeepsHotKey pins why a re-put moves a key to the
// back of the put order: the stale layer re-puts every decision it
// serves, so a key decided on every request is never the victim while
// colder keys come and go around it.
func TestDecisionCacheRePutKeepsHotKey(t *testing.T) {
	for _, cfg := range cacheConfigs {
		c := NewDecisionCache(cfg.maxAge, cfg.bound)
		s := &c.stripes[0]
		keys := stripeKeys(c, 3*s.max)
		hot, cold := keys[0], keys[1:]
		at := cacheT0
		put := func(k string) {
			c.Put(k, HashString(k), "res", permitBy(k), at, c.Generation())
			at = at.Add(time.Millisecond)
		}
		// The hot key is put first, so it starts at the front.
		put(hot)
		for _, k := range cold {
			put(k)
			put(hot)
			if len(s.entries) > s.max {
				t.Fatalf("%s: stripe holds %d entries, bound is %d", cfg.name, len(s.entries), s.max)
			}
		}
		if _, ok := s.entries[hot]; !ok {
			t.Fatalf("%s: the re-put hot key was evicted", cfg.name)
		}
		for _, k := range cold[:len(cold)-s.max+1] {
			if _, ok := s.entries[k]; ok {
				t.Fatalf("%s: cold %s survived %d later puts", cfg.name, k, len(cold))
			}
		}
	}
}
