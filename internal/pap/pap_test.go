package pap

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/pep"
	"repro/internal/policy"
)

func permitPolicy(id string) *policy.Policy {
	return policy.NewPolicy(id).
		Combining(policy.DenyUnlessPermit).
		Rule(policy.Permit(id + "-allow").Build()).
		Build()
}

func TestPutGetVersioning(t *testing.T) {
	s := NewStore("pap-a")
	v1, err := s.Put(permitPolicy("p1"))
	if err != nil || v1 != 1 {
		t.Fatalf("Put v1 = %d, %v", v1, err)
	}
	v2, err := s.Put(permitPolicy("p1"))
	if err != nil || v2 != 2 {
		t.Fatalf("Put v2 = %d, %v", v2, err)
	}
	latest, err := s.Get("p1")
	if err != nil {
		t.Fatal(err)
	}
	if latest.(*policy.Policy).Version != "2" {
		t.Errorf("latest version = %s, want 2", latest.(*policy.Policy).Version)
	}
	old, err := s.GetVersion("p1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if old.(*policy.Policy).Version != "1" {
		t.Errorf("historical version = %s, want 1", old.(*policy.Policy).Version)
	}
	if s.History("p1") != 2 {
		t.Errorf("History = %d, want 2", s.History("p1"))
	}
}

func TestPutRejectsInvalid(t *testing.T) {
	s := NewStore("pap")
	if _, err := s.Put(nil); err == nil {
		t.Error("nil policy must be rejected")
	}
	if _, err := s.Put(&policy.Policy{Combining: policy.DenyOverrides}); err == nil {
		t.Error("invalid policy must be rejected")
	}
}

func TestDeleteAndNotFound(t *testing.T) {
	s := NewStore("pap")
	if _, err := s.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
	if _, err := s.Put(permitPolicy("p1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("p1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted policy should be NotFound, got %v", err)
	}
	if err := s.Delete("p1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: want ErrNotFound, got %v", err)
	}
	// History survives deletion for audit.
	if s.History("p1") != 1 {
		t.Errorf("history after delete = %d, want 1", s.History("p1"))
	}
	// Re-adding continues the version sequence.
	v, err := s.Put(permitPolicy("p1"))
	if err != nil || v != 2 {
		t.Errorf("re-add version = %d, %v; want 2", v, err)
	}
}

func TestListSorted(t *testing.T) {
	s := NewStore("pap")
	for _, id := range []string{"zeta", "alpha", "mid"} {
		if _, err := s.Put(permitPolicy(id)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestWatchNotifications(t *testing.T) {
	s := NewStore("pap")
	var updates []Update
	s.Watch(func(u Update) { updates = append(updates, u) })
	if _, err := s.Put(permitPolicy("p1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(permitPolicy("p1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(permitPolicy("p1")); err != nil {
		t.Fatal(err)
	}
	if len(updates) != 4 {
		t.Fatalf("got %d updates, want 4: %+v", len(updates), updates)
	}
	if updates[0].Version != 1 || updates[1].Version != 2 || !updates[2].Deleted || updates[3].Version != 3 {
		t.Errorf("updates = %+v", updates)
	}
	// A Put carries the stored policy; a Delete carries none, so a
	// watcher passes Policy on as is (nil removes).
	if updates[0].Policy == nil || updates[1].Policy == nil || updates[2].Policy != nil {
		t.Errorf("update policies = %v, %v, %v; want non-nil, non-nil, nil",
			updates[0].Policy, updates[1].Policy, updates[2].Policy)
	}
	// Previous is the live version each write replaced or deleted: none
	// before the first put and none after the delete.
	for i, want := range []policy.Evaluable{nil, updates[0].Policy, updates[1].Policy, nil} {
		if updates[i].Previous != want {
			t.Errorf("update %d: Previous = %v, want %v", i, updates[i].Previous, want)
		}
	}
}

func TestBuildRoot(t *testing.T) {
	s := NewStore("pap")
	if _, err := s.Put(permitPolicy("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(permitPolicy("a")); err != nil {
		t.Fatal(err)
	}
	root, err := s.BuildRoot(Root{ID: "domain-root", Combining: policy.DenyOverrides})
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) != 2 || root.Children[0].EntityID() != "a" {
		t.Errorf("root children = %v", root.Children)
	}
	// The assembled root drives a PDP directly.
	engine := pdp.New("pdp")
	if err := engine.SetRoot(root); err != nil {
		t.Fatal(err)
	}
	if res := policy.Decide(context.Background(), engine, policy.NewAccessRequest("u", "r", "read"), time.Time{}); res.Decision != policy.DecisionPermit {
		t.Errorf("decision = %v", res.Decision)
	}
}

// adminGuard builds an enforcer whose policy allows only "root-admin" to
// write policies and anyone to read them.
func adminGuard(t *testing.T) *pep.Enforcer {
	t.Helper()
	adminPolicy := policy.NewPolicySet("admin").Combining(policy.DenyUnlessPermit).
		Add(policy.NewPolicy("admin-rules").
			Combining(policy.FirstApplicable).
			When(policy.MatchResource(policy.AttrResourceType, policy.String(ResourceTypePolicy))).
			Rule(policy.Permit("reads").When(policy.MatchActionID(ActionPolicyRead)).Build()).
			Rule(policy.Permit("root-writes").
				When(policy.MatchSubject(policy.AttrSubjectID, policy.String("root-admin"))).
				Build()).
			Rule(policy.Deny("default").Build()).
			Build()).
		Build()
	engine := pdp.New("admin-pdp")
	if err := engine.SetRoot(adminPolicy); err != nil {
		t.Fatal(err)
	}
	return pep.NewEnforcer("admin-pep", engine)
}

func TestGuardedStoreSelfProtection(t *testing.T) {
	gs := NewGuardedStore(NewStore("pap"), adminGuard(t))

	// root-admin can write.
	if _, err := gs.Put(context.Background(), "root-admin", permitPolicy("p1")); err != nil {
		t.Fatalf("root-admin write: %v", err)
	}
	// An intern cannot.
	if _, err := gs.Put(context.Background(), "intern", permitPolicy("p2")); !errors.Is(err, ErrForbidden) {
		t.Errorf("intern write: want ErrForbidden, got %v", err)
	}
	// Anyone can read.
	if _, err := gs.Get(context.Background(), "intern", "p1"); err != nil {
		t.Errorf("intern read: %v", err)
	}
	// Delete requires write-grade rights; the policy above permits only
	// reads and root-admin, so intern deletion is refused.
	if err := gs.Delete(context.Background(), "intern", "p1"); !errors.Is(err, ErrForbidden) {
		t.Errorf("intern delete: want ErrForbidden, got %v", err)
	}
	if err := gs.Delete(context.Background(), "root-admin", "p1"); err != nil {
		t.Errorf("root-admin delete: %v", err)
	}
	if _, err := gs.Put(context.Background(), "root-admin", nil); err == nil {
		t.Error("nil policy must be rejected before enforcement")
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := NewStore("pap")
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 20; i++ {
				_, err = s.Put(permitPolicy(fmt.Sprintf("p-%d", w)))
				if err != nil {
					break
				}
			}
			done <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if len(s.List()) != workers {
		t.Errorf("List len = %d, want %d", len(s.List()), workers)
	}
	for w := 0; w < workers; w++ {
		if s.History(fmt.Sprintf("p-%d", w)) != 20 {
			t.Errorf("worker %d history = %d, want 20", w, s.History(fmt.Sprintf("p-%d", w)))
		}
	}
}
