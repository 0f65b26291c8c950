package resilience

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
)

func staleKey(i int) (string, uint64) {
	k := fmt.Sprintf("key-%d", i)
	return k, policy.HashString(k)
}

// TestStaleNeverExceedsGraceWindow is the staleness-bound proof on a
// virtual clock: an entry is served while (and only while) its age is
// within grace, and the first over-grace touch removes it for good.
func TestStaleNeverExceedsGraceWindow(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	grace := 30 * time.Second
	c := newStaleCache(nil, grace, nil, 64)
	key, hash := staleKey(1)
	want := policy.Result{Decision: policy.DecisionPermit, By: "p1"}
	c.put(key, hash, want, now, 0)

	for _, step := range []time.Duration{0, time.Second, 29 * time.Second, grace} {
		res, age, ok := c.get(key, hash, now.Add(step))
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

	if _, _, ok := c.get(key, hash, now.Add(grace+time.Nanosecond)); ok {
		t.Fatal("entry served beyond the grace window")
	}
	// The over-grace touch evicted: even rolling the clock back cannot
	// resurrect it.
	if _, _, ok := c.get(key, hash, now); ok {
		t.Fatal("over-grace entry resurrected")
	}
	if st := c.Stats(); st.TooOld != 1 {
		t.Fatalf("stats = %+v, want 1 too-old rejection", st)
	}
}

func TestStaleCacheColdMiss(t *testing.T) {
	c := newStaleCache(nil, time.Hour, nil, 64)
	key, hash := staleKey(7)
	if _, _, ok := c.get(key, hash, time.Unix(0, 0)); ok {
		t.Fatal("cold key served")
	}
	if st := c.Stats(); st.ColdMisses != 1 {
		t.Fatalf("stats = %+v, want 1 cold miss", st)
	}
}

func TestStaleCacheBounded(t *testing.T) {
	const max = 64
	c := newStaleCache(nil, time.Hour, nil, max)
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 10*max; i++ {
		key, hash := staleKey(i)
		c.put(key, hash, policy.Result{Decision: policy.DecisionPermit}, now.Add(time.Duration(i)*time.Second), 0)
	}
	if n := c.Stats().Entries; n > max {
		t.Fatalf("occupancy %d exceeds bound %d", n, max)
	}
}

func TestStaleCacheConcurrent(t *testing.T) {
	c := newStaleCache(nil, time.Minute, nil, 256)
	base := time.Unix(1_700_000_000, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				key, hash := staleKey((seed*31 + i) % 512)
				at := base.Add(time.Duration(i) * time.Millisecond)
				switch {
				case i%500 == 0:
					c.Invalidate()
				case i%2 == 0:
					c.put(key, hash, policy.Result{Decision: policy.DecisionDeny}, at, c.gen.Load())
				default:
					res, age, ok := c.get(key, hash, at)
					if !ok {
						continue
					}
					if res.Decision != policy.DecisionDeny || age > time.Minute {
						panic(fmt.Sprintf("incoherent stale read: %+v age %v", res, age))
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
