package pip

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/policy"
)

func TestStaticStore(t *testing.T) {
	s := NewStaticStore("env")
	s.Set(policy.CategoryEnvironment, "site", policy.String("newcastle"))
	bag, err := s.ResolveAttribute(context.Background(), nil, policy.CategoryEnvironment, "site")
	if err != nil {
		t.Fatal(err)
	}
	if !bag.Contains(policy.String("newcastle")) {
		t.Errorf("got %v", bag.Strings())
	}
	missing, err := s.ResolveAttribute(context.Background(), nil, policy.CategoryEnvironment, "absent")
	if err != nil || !missing.Empty() {
		t.Errorf("absent attribute: got %v, %v", missing, err)
	}
	// Mutating the returned bag must not corrupt the store.
	bag[0] = policy.String("corrupted")
	again, _ := s.ResolveAttribute(context.Background(), nil, policy.CategoryEnvironment, "site")
	if !again.Contains(policy.String("newcastle")) {
		t.Error("store aliased its internal bag")
	}
}

func directoryWithAlice() *Directory {
	d := NewDirectory("idp-a")
	d.AddSubject(Subject{
		ID:        "alice",
		Domain:    "hospital-a",
		Roles:     []string{"doctor", "researcher"},
		Groups:    []string{"cardiology"},
		Clearance: 3,
		Extra: map[string]policy.Bag{
			"email": policy.Singleton(policy.String("alice@hospital-a.example")),
		},
	})
	return d
}

func TestDirectoryResolvesSubjectAttributes(t *testing.T) {
	d := directoryWithAlice()
	req := policy.NewAccessRequest("alice", "r", "read")

	roles, err := d.ResolveAttribute(context.Background(), req, policy.CategorySubject, policy.AttrSubjectRole)
	if err != nil {
		t.Fatal(err)
	}
	if !roles.Contains(policy.String("doctor")) || !roles.Contains(policy.String("researcher")) {
		t.Errorf("roles = %v", roles.Strings())
	}
	dom, _ := d.ResolveAttribute(context.Background(), req, policy.CategorySubject, policy.AttrSubjectDomain)
	if !dom.Contains(policy.String("hospital-a")) {
		t.Errorf("domain = %v", dom.Strings())
	}
	clr, _ := d.ResolveAttribute(context.Background(), req, policy.CategorySubject, policy.AttrClearance)
	if v, _ := clr.One(); v.Int() != 3 {
		t.Errorf("clearance = %v", clr.Strings())
	}
	email, _ := d.ResolveAttribute(context.Background(), req, policy.CategorySubject, "email")
	if !email.Contains(policy.String("alice@hospital-a.example")) {
		t.Errorf("extra attr = %v", email.Strings())
	}
	groups, _ := d.ResolveAttribute(context.Background(), req, policy.CategorySubject, policy.AttrSubjectGroup)
	if !groups.Contains(policy.String("cardiology")) {
		t.Errorf("groups = %v", groups.Strings())
	}
}

func TestDirectoryUnknownSubjectAndCategories(t *testing.T) {
	d := directoryWithAlice()
	unknown := policy.NewAccessRequest("mallory", "r", "read")
	bag, err := d.ResolveAttribute(context.Background(), unknown, policy.CategorySubject, policy.AttrSubjectRole)
	if err != nil || !bag.Empty() {
		t.Errorf("unknown subject: %v, %v", bag, err)
	}
	// Non-subject categories are not this provider's business.
	bag, err = d.ResolveAttribute(context.Background(), policy.NewAccessRequest("alice", "r", "read"), policy.CategoryResource, "owner")
	if err != nil || !bag.Empty() {
		t.Errorf("resource category: %v, %v", bag, err)
	}
	if _, err := d.ResolveAttribute(context.Background(), nil, policy.CategorySubject, policy.AttrSubjectRole); err != nil {
		t.Errorf("nil request must not error: %v", err)
	}
}

func TestDirectoryProvisioning(t *testing.T) {
	d := directoryWithAlice()
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	d.AddSubject(Subject{ID: "bob"})
	if got := d.SubjectIDs(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Errorf("SubjectIDs = %v", got)
	}
	d.RemoveSubject("alice")
	if _, ok := d.Subject("alice"); ok {
		t.Error("alice should be deprovisioned")
	}
}

func TestHistoryProvider(t *testing.T) {
	h := NewHistoryProvider("history")
	h.Record("alice", "bank-a")
	h.Record("alice", "oil-x")
	if !h.Accessed("alice", "bank-a") || h.Accessed("bob", "bank-a") {
		t.Error("Accessed bookkeeping wrong")
	}
	req := policy.NewAccessRequest("alice", "r", "read")
	bag, err := h.ResolveAttribute(context.Background(), req, policy.CategorySubject, "accessed-dataset")
	if err != nil {
		t.Fatal(err)
	}
	if !bag.SetEquals(policy.BagOf(policy.String("bank-a"), policy.String("oil-x"))) {
		t.Errorf("history = %v", bag.Strings())
	}
	empty, _ := h.ResolveAttribute(context.Background(), policy.NewAccessRequest("bob", "r", "read"), policy.CategorySubject, "accessed-dataset")
	if !empty.Empty() {
		t.Errorf("bob should have no history, got %v", empty.Strings())
	}
}

type failingProvider struct{ err error }

func (f failingProvider) Name() string { return "failing" }
func (f failingProvider) ResolveAttribute(context.Context, *policy.Request, policy.Category, string) (policy.Bag, error) {
	return nil, f.err
}

func TestChainOrderingAndErrors(t *testing.T) {
	first := NewStaticStore("first")
	second := NewStaticStore("second")
	first.Set(policy.CategoryEnvironment, "shared", policy.String("from-first"))
	second.Set(policy.CategoryEnvironment, "shared", policy.String("from-second"))
	second.Set(policy.CategoryEnvironment, "only-second", policy.String("x"))

	chain := NewChain("chain", first, second)
	bag, err := chain.ResolveAttribute(context.Background(), nil, policy.CategoryEnvironment, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if !bag.Contains(policy.String("from-first")) {
		t.Errorf("chain should prefer earlier providers, got %v", bag.Strings())
	}
	bag, _ = chain.ResolveAttribute(context.Background(), nil, policy.CategoryEnvironment, "only-second")
	if !bag.Contains(policy.String("x")) {
		t.Error("chain should fall through to later providers")
	}

	boom := errors.New("boom")
	failChain := NewChain("failing-chain", failingProvider{err: boom}, first)
	if _, err := failChain.ResolveAttribute(context.Background(), nil, policy.CategoryEnvironment, "shared"); !errors.Is(err, boom) {
		t.Errorf("chain must surface provider errors, got %v", err)
	}
}

func TestCacheHitMissAndTTL(t *testing.T) {
	d := directoryWithAlice()
	now := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	cache := NewCache(d, 30*time.Second, 0).WithClock(func() time.Time { return now })
	req := policy.NewAccessRequest("alice", "r", "read")

	for i := 0; i < 3; i++ {
		if _, err := cache.ResolveAttribute(context.Background(), req, policy.CategorySubject, policy.AttrSubjectRole); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss 2 hits", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("HitRate = %v", got)
	}

	// After the TTL the entry must be refreshed.
	now = now.Add(time.Minute)
	if _, err := cache.ResolveAttribute(context.Background(), req, policy.CategorySubject, policy.AttrSubjectRole); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Errorf("expired entry should miss, stats = %+v", st)
	}
}

func TestCacheServesStaleUntilExpiry(t *testing.T) {
	// The paper's warning: cached attributes can produce false permits
	// after revocation, bounded by the TTL.
	d := directoryWithAlice()
	now := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	cache := NewCache(d, time.Minute, 0).WithClock(func() time.Time { return now })
	req := policy.NewAccessRequest("alice", "r", "read")

	bag, _ := cache.ResolveAttribute(context.Background(), req, policy.CategorySubject, policy.AttrSubjectRole)
	if !bag.Contains(policy.String("doctor")) {
		t.Fatal("precondition: alice is a doctor")
	}
	// Revoke at the source.
	d.RemoveSubject("alice")
	bag, _ = cache.ResolveAttribute(context.Background(), req, policy.CategorySubject, policy.AttrSubjectRole)
	if !bag.Contains(policy.String("doctor")) {
		t.Error("within TTL the stale role is still served (expected model behaviour)")
	}
	// Explicit invalidation closes the window immediately.
	cache.Invalidate()
	bag, _ = cache.ResolveAttribute(context.Background(), req, policy.CategorySubject, policy.AttrSubjectRole)
	if !bag.Empty() {
		t.Errorf("after invalidation the revocation must be visible, got %v", bag.Strings())
	}
}

func TestCacheBound(t *testing.T) {
	s := NewStaticStore("s")
	s.Set(policy.CategoryEnvironment, "k", policy.String("v"))
	cache := NewCache(s, time.Hour, 2)
	resolve := func(subj string) {
		t.Helper()
		req := policy.NewAccessRequest(subj, "r", "read")
		if _, err := cache.ResolveAttribute(context.Background(), req, policy.CategoryEnvironment, "k"); err != nil {
			t.Fatal(err)
		}
	}
	// cached reports which subjects hold an entry, and fails past the bound.
	cached := func(subjects ...string) []bool {
		t.Helper()
		cache.mu.Lock()
		defer cache.mu.Unlock()
		if n := len(cache.entries); n > 2 {
			t.Errorf("cache grew to %d entries, bound is 2", n)
		}
		in := make([]bool, len(subjects))
		for i, subj := range subjects {
			_, in[i] = cache.entries[cacheKey{subject: subj, cat: policy.CategoryEnvironment, name: "k"}]
		}
		return in
	}
	for _, subj := range []string{"a", "b", "c"} {
		resolve(subj)
	}
	// The oldest inserted key is the one evicted.
	if in := cached("a", "b", "c"); in[0] || !in[1] || !in[2] {
		t.Errorf("after a, b, c at bound 2: a, b, c cached = %v, want a evicted", in)
	}
	resolve("d")
	if in := cached("b", "c", "d"); in[0] || !in[1] || !in[2] {
		t.Errorf("after d: b, c, d cached = %v, want b evicted", in)
	}
	// Invalidate resets the order: keys cached before it cannot evict
	// keys filled after it.
	cache.Invalidate()
	resolve("d")
	resolve("e")
	if in := cached("d", "e"); !in[0] || !in[1] {
		t.Errorf("after Invalidate, d, e: cached = %v, want both", in)
	}
}

func TestCacheIntegratesWithPolicyContext(t *testing.T) {
	d := directoryWithAlice()
	cache := NewCache(d, time.Minute, 0)
	p := policy.NewPolicy("p").
		Combining(policy.DenyUnlessPermit).
		Rule(policy.Permit("doctors").
			If(policy.AttrContains(policy.CategorySubject, policy.AttrSubjectRole, policy.String("doctor"))).
			Build()).
		Build()
	ctx := policy.NewContext(policy.NewAccessRequest("alice", "rec", "read")).WithResolver(cache)
	if res := p.Evaluate(ctx); res.Decision != policy.DecisionPermit {
		t.Errorf("decision = %v, want Permit via PIP-resolved role", res.Decision)
	}
}
