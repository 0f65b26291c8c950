package pip

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
)

// countingProvider counts backend fetches per attribute name.
type countingProvider struct {
	inner   Provider
	fetches sync.Map // name -> *int64
}

func (c *countingProvider) Name() string { return "counting" }

func (c *countingProvider) ResolveAttribute(ctx context.Context, req *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
	n, _ := c.fetches.LoadOrStore(name, new(int64))
	atomic.AddInt64(n.(*int64), 1)
	return c.inner.ResolveAttribute(ctx, req, cat, name)
}

func (c *countingProvider) count(name string) int64 {
	n, ok := c.fetches.Load(name)
	if !ok {
		return 0
	}
	return atomic.LoadInt64(n.(*int64))
}

// TestRequestResolverMemoisesAcrossEvaluations is the per-request
// memoisation guarantee: however many evaluations one request triggers —
// here a local decision and a VO-style second decision against another
// engine, each consulting the role attribute — the attribute is fetched
// from the information point exactly once.
func TestRequestResolverMemoisesAcrossEvaluations(t *testing.T) {
	dir := NewDirectory("idp")
	dir.AddSubject(Subject{ID: "alice", Roles: []string{"doctor"}})
	backend := &countingProvider{inner: dir}
	resolver := NewRequestResolver(backend)

	rolePolicy := func(id string) *policy.PolicySet {
		return policy.NewPolicySet(id).Combining(policy.DenyOverrides).
			Add(policy.NewPolicy(id + "-p").Combining(policy.FirstApplicable).
				Rule(policy.Permit("ok").When(policy.MatchRole("doctor")).Build()).
				Rule(policy.Deny("no").Build()).
				Build()).
			Build()
	}
	local := pdp.New("local")
	if err := local.SetRoot(rolePolicy("local")); err != nil {
		t.Fatal(err)
	}
	vo := pdp.New("vo")
	if err := vo.SetRoot(rolePolicy("vo")); err != nil {
		t.Fatal(err)
	}

	req := policy.NewAccessRequest("alice", "rec-1", "read")
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ctx := context.Background()
	if res := decideWith(ctx, local, req, at, resolver); res.Decision != policy.DecisionPermit {
		t.Fatalf("local decision %s: %v", res.Decision, res.Err)
	}
	if res := decideWith(ctx, vo, req, at, resolver); res.Decision != policy.DecisionPermit {
		t.Fatalf("vo decision %s: %v", res.Decision, res.Err)
	}
	if got := backend.count(policy.AttrSubjectRole); got != 1 {
		t.Fatalf("role fetched %d times within one request, want exactly 1", got)
	}
}

// TestRequestResolverDoesNotMemoiseErrors: a transient fetch failure must
// not poison later evaluations of the same request.
func TestRequestResolverDoesNotMemoiseErrors(t *testing.T) {
	boom := errors.New("backend down")
	calls := 0
	flaky := policy.ResolverFunc(func(_ context.Context, _ *policy.Request, _ policy.Category, _ string) (policy.Bag, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return policy.Singleton(policy.String("doctor")), nil
	})
	r := NewRequestResolver(flaky)
	ctx := context.Background()
	if _, err := r.ResolveAttribute(ctx, nil, policy.CategorySubject, policy.AttrSubjectRole); !errors.Is(err, boom) {
		t.Fatalf("first fetch err = %v, want %v", err, boom)
	}
	bag, err := r.ResolveAttribute(ctx, nil, policy.CategorySubject, policy.AttrSubjectRole)
	if err != nil || bag.Empty() {
		t.Fatalf("retry after transient failure: bag=%v err=%v", bag, err)
	}
	if calls != 2 {
		t.Fatalf("backend calls = %d, want 2", calls)
	}
}

// blockingProvider blocks every fetch until released, honouring ctx.
type blockingProvider struct {
	release chan struct{}
	fetches atomic.Int64
}

func (b *blockingProvider) Name() string { return "blocking" }

func (b *blockingProvider) ResolveAttribute(ctx context.Context, _ *policy.Request, _ policy.Category, _ string) (policy.Bag, error) {
	b.fetches.Add(1)
	select {
	case <-b.release:
		return policy.Singleton(policy.String("v")), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestCacheCoalescesConcurrentMisses: N concurrent misses for one key
// issue one backend fetch; the waiters share its result.
func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	backend := &blockingProvider{release: make(chan struct{})}
	cache := NewCache(backend, time.Minute, 0)
	req := policy.NewAccessRequest("alice", "r", "read")

	const waiters = 16
	var wg sync.WaitGroup
	results := make([]policy.Bag, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cache.ResolveAttribute(context.Background(), req, policy.CategorySubject, "attr")
		}(i)
	}
	// Wait for the leader to reach the backend, then give stragglers a
	// moment to pile onto the flight before releasing it.
	for backend.fetches.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(backend.release)
	wg.Wait()

	if got := backend.fetches.Load(); got != 1 {
		t.Fatalf("backend fetches = %d, want 1 (coalesced)", got)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil || results[i].Empty() {
			t.Fatalf("waiter %d: bag=%v err=%v", i, results[i], errs[i])
		}
	}
	st := cache.Stats()
	if st.Coalesced != waiters-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, waiters-1)
	}
}

// TestCacheWaiterSurvivesLeaderCancellation: when the flight leader's own
// context dies mid-fetch, waiters with live contexts are not poisoned by
// the leader's ctx error — one of them retries as the new leader and the
// burst still resolves.
func TestCacheWaiterSurvivesLeaderCancellation(t *testing.T) {
	backend := &blockingProvider{release: make(chan struct{})}
	cache := NewCache(backend, time.Minute, 0)
	req := policy.NewAccessRequest("alice", "r", "read")

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := cache.ResolveAttribute(leaderCtx, req, policy.CategorySubject, "attr")
		leaderErr <- err
	}()
	for backend.fetches.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	waiterDone := make(chan error, 1)
	var waiterBag policy.Bag
	go func() {
		bag, err := cache.ResolveAttribute(context.Background(), req, policy.CategorySubject, "attr")
		waiterBag = bag
		waiterDone <- err
	}()
	// Give the waiter a moment to join the flight, then kill the leader.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want Canceled", err)
	}
	// The waiter must retry as the new leader (a second backend fetch)...
	for backend.fetches.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	// ...and succeed once the backend answers.
	close(backend.release)
	if err := <-waiterDone; err != nil || waiterBag.Empty() {
		t.Fatalf("waiter inherited the leader's fate: bag=%v err=%v", waiterBag, err)
	}
}

// TestCacheWaiterHonoursDeadline: a waiter whose context expires abandons
// the in-flight fetch with the ctx error instead of blocking on the
// leader.
func TestCacheWaiterHonoursDeadline(t *testing.T) {
	backend := &blockingProvider{release: make(chan struct{})}
	defer close(backend.release)
	cache := NewCache(backend, time.Minute, 0)
	req := policy.NewAccessRequest("alice", "r", "read")

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _ = cache.ResolveAttribute(context.Background(), req, policy.CategorySubject, "attr")
	}()
	for backend.fetches.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cache.ResolveAttribute(ctx, req, policy.CategorySubject, "attr")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("waiter did not abandon the flight promptly")
	}
}

// decideWith decides one request through d with a per-call resolver.
func decideWith(ctx context.Context, d policy.Decider, req *policy.Request, at time.Time, resolver policy.Resolver) policy.Result {
	out := make([]policy.Result, 1)
	d.DecideScatterAt(ctx, []*policy.Request{req}, nil, at, resolver, out)
	return out[0]
}
