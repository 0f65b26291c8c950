package workload

import (
	"context"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
)

func TestGeneratorDeterministic(t *testing.T) {
	cfg := Config{Users: 10, Resources: 100, Roles: 3, Seed: 42}
	g1, g2 := NewGenerator(cfg), NewGenerator(cfg)
	for i := 0; i < 50; i++ {
		a, b := g1.NextRequest(), g2.NextRequest()
		if a.CacheKey() != b.CacheKey() {
			t.Fatalf("request %d diverges", i)
		}
		if g1.NextInterarrival() != g2.NextInterarrival() {
			t.Fatalf("interarrival %d diverges", i)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewGenerator(Config{Users: 10, Resources: 1000, Roles: 3, Seed: 7})
	counts := make(map[string]int)
	const n = 5000
	for i := 0; i < n; i++ {
		counts[g.NextRequest().ResourceID()]++
	}
	// The most popular resource must dominate: Zipf s=1.2 concentrates
	// a large share on res-0.
	if counts[ResourceID(0)] < n/10 {
		t.Errorf("res-0 drew %d/%d requests, expected heavy skew", counts[ResourceID(0)], n)
	}
	if len(counts) < 20 {
		t.Errorf("only %d distinct resources drawn, expected a long tail", len(counts))
	}
}

func TestActionMix(t *testing.T) {
	g := NewGenerator(Config{Users: 5, Resources: 10, Roles: 2, ReadFraction: 0.8, Seed: 3})
	reads := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if g.NextRequest().ActionID() == "read" {
			reads++
		}
	}
	frac := float64(reads) / n
	if frac < 0.75 || frac > 0.85 {
		t.Errorf("read fraction = %.3f, want ~0.8", frac)
	}
}

func TestInterarrivalPositiveAndMeanish(t *testing.T) {
	g := NewGenerator(Config{Users: 1, Resources: 1, Roles: 1, MeanInterarrival: 10 * time.Millisecond, Seed: 5})
	var sum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		d := g.NextInterarrival()
		if d <= 0 {
			t.Fatalf("non-positive interarrival %v", d)
		}
		sum += d
	}
	mean := sum / n
	if mean < 8*time.Millisecond || mean > 12*time.Millisecond {
		t.Errorf("mean interarrival = %v, want ~10ms", mean)
	}
}

func TestDirectoryAndPolicyBaseAgree(t *testing.T) {
	cfg := Config{Users: 30, Resources: 20, Roles: 5, Seed: 1}
	g := NewGenerator(cfg)
	dir := g.Directory("idp")
	if dir.Len() != 30 {
		t.Fatalf("directory size = %d", dir.Len())
	}
	base := g.PolicyBase("root")
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(base.Children) != 20 {
		t.Fatalf("policy count = %d", len(base.Children))
	}

	engine := pdp.New("pdp", pdp.WithResolver(dir))
	if err := engine.SetRoot(base); err != nil {
		t.Fatal(err)
	}
	// user-7 holds role-2 (7 mod 5); resource res-12 belongs to role-2
	// (12 mod 5): permit.
	res := policy.Decide(context.Background(), engine, policy.NewAccessRequest(UserID(7), ResourceID(12), "read"), time.Time{})
	if res.Decision != policy.DecisionPermit {
		t.Errorf("owner read = %v, want Permit", res.Decision)
	}
	// user-7 (role-2) on res-10 (role-0): deny.
	res = policy.Decide(context.Background(), engine, policy.NewAccessRequest(UserID(7), ResourceID(10), "read"), time.Time{})
	if res.Decision != policy.DecisionDeny {
		t.Errorf("foreign read = %v, want Deny", res.Decision)
	}
}
