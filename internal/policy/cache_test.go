package policy

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// cacheConfigs are the three placements of the one decision cache, each
// with a max age a deployment runs (bench's -cache 5m and -stale-grace
// 30s, E7's 60 s PEP TTL) and its default entry bound: the engine's TTL
// cache, the stale layer's last-known-good store (max age = grace) and an
// enforcement point's cache.
var cacheConfigs = []struct {
	name   string
	maxAge time.Duration
	bound  int
}{
	{"engine", 5 * time.Minute, 8192},
	{"stale", 30 * time.Second, 8192},
	{"pep", time.Minute, 4096},
}

var cacheT0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func cacheKeyOf(i int) (string, uint64) {
	k := fmt.Sprintf("key-%d", i)
	return k, HashString(k)
}

// stripeKeys returns n keys that all land in stripe 0 of c.
func stripeKeys(c *DecisionCache, n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		if k, h := cacheKeyOf(i); h&c.mask == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

func permitBy(by string) Result { return Result{Decision: DecisionPermit, By: by} }

// TestDecisionCacheConfigurations runs every rule of the one cache
// against each placement's configuration.
func TestDecisionCacheConfigurations(t *testing.T) {
	for _, cfg := range cacheConfigs {
		fresh := func() *DecisionCache { return NewDecisionCache(cfg.maxAge, cfg.bound) }
		t.Run(cfg.name+"/max-age-boundary", func(t *testing.T) {
			// A hit needs age < max age: the TTL boundary for the engine
			// and the enforcement point, the grace boundary for the stale
			// layer.
			c := fresh()
			key, hash := cacheKeyOf(1)
			c.Put(key, hash, "res", permitBy("p"), cacheT0, c.Generation())
			res, age, ok, _ := c.Get(key, hash, cacheT0.Add(cfg.maxAge-time.Nanosecond))
			if !ok || res.By != "p" || age != cfg.maxAge-time.Nanosecond {
				t.Fatalf("at max age - 1ns: %+v age %v ok %v, want a hit", res, age, ok)
			}
			if _, age, ok, expired := c.Get(key, hash, cacheT0.Add(cfg.maxAge)); ok || !expired || age != cfg.maxAge {
				t.Fatalf("at max age: ok %v expired %v age %v, want an expired miss", ok, expired, age)
			}
		})
		t.Run(cfg.name+"/over-age-lookup-reclaims", func(t *testing.T) {
			c := fresh()
			key, hash := cacheKeyOf(2)
			c.Put(key, hash, "res", permitBy("p"), cacheT0, c.Generation())
			c.Get(key, hash, cacheT0.Add(2*cfg.maxAge))
			if n := c.Len(); n != 0 {
				t.Fatalf("%d entries after an over-age lookup, want 0", n)
			}
			if _, _, ok, expired := c.Get(key, hash, cacheT0); ok || expired {
				t.Fatal("reclaimed entry resurrected by rolling the clock back")
			}
		})
		t.Run(cfg.name+"/eviction-at-bound", func(t *testing.T) {
			c := fresh()
			s := &c.stripes[0]
			if got := len(c.stripes) * s.max; got < cfg.bound {
				t.Fatalf("%d stripes of %d hold %d entries, bound is %d", len(c.stripes), s.max, got, cfg.bound)
			}
			keys := stripeKeys(c, s.max+8)
			gen := c.Generation()
			// A full stripe of entries at t0 but one, recent, at t0+1s.
			recent := keys[s.max-1]
			for _, k := range keys[:s.max-1] {
				c.Put(k, HashString(k), "res", permitBy(k), cacheT0, gen)
			}
			c.Put(recent, HashString(recent), "res", permitBy(recent), cacheT0.Add(time.Second), gen)
			// Six more puts: every probe of 8 holds an entry older than
			// the recent one, so each drops an old entry.
			at := cacheT0.Add(2 * time.Second)
			for _, k := range keys[s.max : s.max+6] {
				c.Put(k, HashString(k), "res", permitBy(k), at, gen)
				if len(s.entries) != s.max {
					t.Fatalf("stripe holds %d entries, bound is %d", len(s.entries), s.max)
				}
			}
			for _, k := range append([]string{recent}, keys[s.max:s.max+6]...) {
				if _, ok := s.entries[k]; !ok {
					t.Fatalf("%s evicted while older entries were probed", k)
				}
			}
			// Once the t0 entries expire, a put reclaims expired entries
			// and evicts no live one.
			at = cacheT0.Add(cfg.maxAge)
			last := keys[s.max+6]
			c.Put(last, HashString(last), "res", permitBy(last), at, gen)
			if len(s.entries) > s.max {
				t.Fatalf("stripe holds %d entries, bound is %d", len(s.entries), s.max)
			}
			for _, k := range append([]string{recent, last}, keys[s.max:s.max+6]...) {
				if _, ok := s.entries[k]; !ok {
					t.Fatalf("live %s evicted while expired entries were probed", k)
				}
			}
		})
		t.Run(cfg.name+"/invalidate-by-resource", func(t *testing.T) {
			c := fresh()
			ka, ha := cacheKeyOf(3)
			kb, hb := cacheKeyOf(4)
			c.Put(ka, ha, "res-a", permitBy("a"), cacheT0, c.Generation())
			c.Put(kb, hb, "res-b", permitBy("b"), cacheT0, c.Generation())
			if n := c.Invalidate(map[string]struct{}{"res-a": {}}); n != 1 {
				t.Fatalf("Invalidate dropped %d entries, want 1", n)
			}
			if _, _, ok, _ := c.Get(ka, ha, cacheT0); ok {
				t.Fatal("invalidated resource still served")
			}
			if res, _, ok, _ := c.Get(kb, hb, cacheT0); !ok || res.By != "b" {
				t.Fatal("untouched resource dropped by Invalidate")
			}
		})
		t.Run(cfg.name+"/flush", func(t *testing.T) {
			c := fresh()
			for i := 0; i < 100; i++ {
				k, h := cacheKeyOf(i)
				c.Put(k, h, "res", permitBy(k), cacheT0, c.Generation())
			}
			c.Flush()
			if n := c.Len(); n != 0 {
				t.Fatalf("%d entries after Flush, want 0", n)
			}
		})
		for _, race := range []struct {
			name  string
			write func(*DecisionCache)
		}{
			{"flush", (*DecisionCache).Flush},
			{"invalidate", func(c *DecisionCache) { c.Invalidate(map[string]struct{}{"other": {}}) }},
		} {
			t.Run(cfg.name+"/put-raced-by-"+race.name, func(t *testing.T) {
				// The generation is read before the evaluation is
				// dispatched; a write landing before the put drops it.
				c := fresh()
				key, hash := cacheKeyOf(5)
				gen := c.Generation()
				race.write(c)
				if c.Put(key, hash, "res", permitBy("superseded"), cacheT0, gen) {
					t.Fatal("put carrying a superseded generation was stored")
				}
				if _, _, ok, _ := c.Get(key, hash, cacheT0); ok {
					t.Fatal("superseded decision served")
				}
				if !c.Put(key, hash, "res", permitBy("p"), cacheT0, c.Generation()) {
					t.Fatal("put at the current generation dropped")
				}
			})
		}
	}
}

// TestCacheShardExpiredFirstEviction pins the at-capacity behaviour of a
// stripe: expired entries are reclaimed before any live entry is evicted,
// and only when nothing has expired does the oldest live entry go.
func TestCacheShardExpiredFirstEviction(t *testing.T) {
	c := NewDecisionCache(time.Minute, 2)
	if len(c.stripes) != 1 || c.stripes[0].max != 2 {
		t.Fatalf("%d stripes of %d, want one of 2", len(c.stripes), c.stripes[0].max)
	}
	s := &c.stripes[0]
	put := func(key string, at time.Time) {
		c.Put(key, HashString(key), "res-"+key, Result{}, at, c.Generation())
	}
	put("a", cacheT0)
	put("b", cacheT0)

	// Both residents are expired at put time: the sweep must reclaim them
	// rather than evict, leaving only the new entry.
	later := cacheT0.Add(2 * time.Minute)
	put("c", later)
	if len(s.entries) != 1 {
		t.Fatalf("stripe holds %d entries after expired sweep, want 1", len(s.entries))
	}
	if _, ok := s.entries["c"]; !ok {
		t.Fatal("new entry missing after expired sweep")
	}

	// With only live residents the bound still holds by evicting the
	// oldest.
	put("d", later.Add(time.Second))
	put("e", later.Add(2*time.Second))
	if len(s.entries) != 2 {
		t.Fatalf("stripe holds %d live entries, bound is 2", len(s.entries))
	}
	if _, ok := s.entries["c"]; ok {
		t.Fatal("the oldest live entry survived an at-capacity put")
	}
}

// TestCacheExpiredLookupReclaims pins the lookup half of max-age hygiene:
// an expired entry is deleted the moment a lookup touches it, instead of
// pinning memory until eviction reaches it.
func TestCacheExpiredLookupReclaims(t *testing.T) {
	c := NewDecisionCache(time.Minute, 1024)
	key, hash := cacheKeyOf(1)
	c.Put(key, hash, "res-1", permitBy("p"), cacheT0, c.Generation())
	if n := c.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
	// Past the max age the lookup misses and deletes the dead entry; the
	// re-evaluation's put leaves exactly one entry.
	later := cacheT0.Add(2 * time.Minute)
	if _, _, ok, expired := c.Get(key, hash, later); ok || !expired {
		t.Fatalf("post-TTL lookup ok %v expired %v, want an expired miss", ok, expired)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after the expired lookup, want 0", n)
	}
	c.Put(key, hash, "res-1", permitBy("p"), later, c.Generation())
	if n := c.Len(); n != 1 {
		t.Errorf("cache holds %d entries, want 1", n)
	}
}

// TestStaleNeverExceedsGraceWindow is the staleness-bound proof on a
// virtual clock: an entry is served while (and only while) its age is
// under grace, and the first touch at grace removes it for good.
func TestStaleNeverExceedsGraceWindow(t *testing.T) {
	grace := 30 * time.Second
	c := NewDecisionCache(grace, 64)
	key, hash := cacheKeyOf(1)
	want := permitBy("p1")
	c.Put(key, hash, "", want, cacheT0, c.Generation())

	for _, step := range []time.Duration{0, time.Second, 29 * time.Second, grace - time.Nanosecond} {
		res, age, ok, _ := c.Get(key, hash, cacheT0.Add(step))
		if !ok {
			t.Fatalf("entry aged %v not served within grace %v", step, grace)
		}
		if res.Decision != want.Decision || res.By != want.By {
			t.Fatalf("served %+v, want %+v", res, want)
		}
		if age != step {
			t.Fatalf("age = %v, want %v", age, step)
		}
	}

	if _, _, ok, expired := c.Get(key, hash, cacheT0.Add(grace)); ok || !expired {
		t.Fatal("entry served at the end of the grace window")
	}
	// The over-grace touch evicted: even rolling the clock back cannot
	// resurrect it.
	if _, _, ok, _ := c.Get(key, hash, cacheT0); ok {
		t.Fatal("over-grace entry resurrected")
	}
}

func TestStaleCacheBounded(t *testing.T) {
	const max = 64
	c := NewDecisionCache(time.Hour, max)
	for i := 0; i < 10*max; i++ {
		key, hash := cacheKeyOf(i)
		c.Put(key, hash, "", Result{Decision: DecisionPermit}, cacheT0.Add(time.Duration(i)*time.Second), c.Generation())
	}
	if n := c.Len(); n > max {
		t.Fatalf("occupancy %d exceeds bound %d", n, max)
	}
}

func TestStaleCacheConcurrent(t *testing.T) {
	c := NewDecisionCache(time.Minute, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				key, hash := cacheKeyOf((seed*31 + i) % 512)
				at := cacheT0.Add(time.Duration(i) * time.Millisecond)
				switch {
				case i%500 == 0:
					c.Flush()
				case i%250 == 0:
					c.Invalidate(map[string]struct{}{"res": {}})
				case i%2 == 0:
					c.Put(key, hash, "res", Result{Decision: DecisionDeny}, at, c.Generation())
				default:
					res, age, ok, _ := c.Get(key, hash, at)
					if !ok {
						continue
					}
					if res.Decision != DecisionDeny || age >= time.Minute {
						panic(fmt.Sprintf("incoherent read: %+v age %v", res, age))
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
