package models

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/pdp"
	"repro/internal/policy"
)

func TestDACOwnership(t *testing.T) {
	d := NewDAC()
	d.Register("report.doc", "alice")
	if owner, ok := d.Owner("report.doc"); !ok || owner != "alice" {
		t.Fatalf("Owner = %s, %v", owner, ok)
	}
	if !d.Check("alice", "report.doc", "write") {
		t.Error("owner holds every right")
	}
	if d.Check("bob", "report.doc", "read") {
		t.Error("ungranted subject must be refused")
	}
}

func TestDACGrantAndRevoke(t *testing.T) {
	d := NewDAC()
	d.Register("report.doc", "alice")
	if err := d.Grant("alice", "bob", "report.doc", "read", false); err != nil {
		t.Fatal(err)
	}
	if !d.Check("bob", "report.doc", "read") {
		t.Error("granted read refused")
	}
	if d.Check("bob", "report.doc", "write") {
		t.Error("bob must not hold write")
	}
	if err := d.Revoke("alice", "bob", "report.doc", "read"); err != nil {
		t.Fatal(err)
	}
	if d.Check("bob", "report.doc", "read") {
		t.Error("revoked right still active")
	}
}

func TestDACGrantOptionDelegation(t *testing.T) {
	d := NewDAC()
	d.Register("data.csv", "alice")
	// Without the grant option bob cannot re-grant.
	if err := d.Grant("alice", "bob", "data.csv", "read", false); err != nil {
		t.Fatal(err)
	}
	if err := d.Grant("bob", "carol", "data.csv", "read", false); !errors.Is(err, ErrNotOwner) {
		t.Errorf("want ErrNotOwner, got %v", err)
	}
	// With it, he can — but only for actions he holds.
	if err := d.Grant("alice", "bob", "data.csv", "read", true); err != nil {
		t.Fatal(err)
	}
	if err := d.Grant("bob", "carol", "data.csv", "read", false); err != nil {
		t.Errorf("grant-option delegation: %v", err)
	}
	if err := d.Grant("bob", "carol", "data.csv", "write", false); !errors.Is(err, ErrNotOwner) {
		t.Errorf("bob lacks write: want ErrNotOwner, got %v", err)
	}
	if !d.Check("carol", "data.csv", "read") {
		t.Error("carol's delegated read refused")
	}
	// Only the owner revokes.
	if err := d.Revoke("bob", "carol", "data.csv", "read"); !errors.Is(err, ErrNotOwner) {
		t.Errorf("want ErrNotOwner, got %v", err)
	}
}

func TestDACUnknownObject(t *testing.T) {
	d := NewDAC()
	if err := d.Grant("a", "b", "ghost", "read", false); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("want ErrUnknownObject, got %v", err)
	}
	if err := d.Revoke("a", "b", "ghost", "read"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("want ErrUnknownObject, got %v", err)
	}
}

func TestMACNoReadUp(t *testing.T) {
	m := NewMAC()
	m.Clear("analyst", Secret)
	m.Label("briefing", Confidential)
	m.Label("warplan", TopSecret)
	if !m.CanRead("analyst", "briefing") {
		t.Error("read down must be allowed")
	}
	if m.CanRead("analyst", "warplan") {
		t.Error("read up must be refused")
	}
}

func TestMACNoWriteDown(t *testing.T) {
	m := NewMAC()
	m.Clear("analyst", Secret)
	m.Label("briefing", Confidential)
	m.Label("warplan", TopSecret)
	m.Label("journal", Secret)
	if m.CanWrite("analyst", "briefing") {
		t.Error("write down must be refused (star property)")
	}
	if !m.CanWrite("analyst", "warplan") {
		t.Error("write up must be allowed")
	}
	if !m.CanWrite("analyst", "journal") {
		t.Error("write at level must be allowed")
	}
}

func TestMACCompartments(t *testing.T) {
	m := NewMAC()
	m.Clear("ops", Secret, "crypto")
	m.Clear("generalist", Secret)
	m.Label("keys", Secret, "crypto")
	if !m.CanRead("ops", "keys") {
		t.Error("compartment holder must read")
	}
	if m.CanRead("generalist", "keys") {
		t.Error("missing compartment must refuse read")
	}
	// Writing from a compartmented subject into an uncompartmented object
	// would leak the compartment.
	m.Label("wiki", Secret)
	if m.CanWrite("ops", "wiki") {
		t.Error("compartment leak on write must be refused")
	}
}

func TestMACUnknownParties(t *testing.T) {
	m := NewMAC()
	m.Label("doc", Secret)
	if m.CanRead("ghost", "doc") || m.CanWrite("ghost", "doc") {
		t.Error("uncleared subject must be refused")
	}
	m.Clear("subj", Secret)
	if m.CanRead("subj", "ghost-doc") || m.CanWrite("subj", "ghost-doc") {
		t.Error("unlabelled object must be refused")
	}
}

func TestMACAsResolverWithPolicy(t *testing.T) {
	// A policy expressing Bell–LaPadula "no read up" over MAC-served
	// attributes: permit read iff clearance >= classification.
	m := NewMAC()
	m.Clear("analyst", Secret)
	m.Label("briefing", Confidential)
	m.Label("warplan", TopSecret)

	noReadUp := policy.NewPolicySet("mac").Combining(policy.DenyUnlessPermit).
		Add(policy.NewPolicy("read-down").
			Combining(policy.DenyUnlessPermit).
			When(policy.MatchActionID("read")).
			Rule(policy.Permit("dominates").
				If(policy.Call(policy.FnGreaterOrEqual,
					policy.Call(policy.FnOneAndOnly, policy.Required(policy.CategorySubject, policy.AttrClearance)),
					policy.Call(policy.FnOneAndOnly, policy.Required(policy.CategoryResource, policy.AttrClassification)))).
				Build()).
			Build()).
		Build()
	engine := pdp.New("mac-pdp", pdp.WithResolver(m))
	if err := engine.SetRoot(noReadUp); err != nil {
		t.Fatal(err)
	}
	if res := policy.Decide(context.Background(), engine, policy.NewAccessRequest("analyst", "briefing", "read"), time.Time{}); res.Decision != policy.DecisionPermit {
		t.Errorf("read down via policy = %v", res.Decision)
	}
	if res := policy.Decide(context.Background(), engine, policy.NewAccessRequest("analyst", "warplan", "read"), time.Time{}); res.Decision != policy.DecisionDeny {
		t.Errorf("read up via policy = %v", res.Decision)
	}
}

func TestChineseWall(t *testing.T) {
	w := NewChineseWall(nil)
	w.DeclareDataset("bank-a", "banking")
	w.DeclareDataset("bank-b", "banking")
	w.DeclareDataset("oil-x", "petroleum")

	// First access in a class is free.
	if err := w.Access("consultant", "bank-a"); err != nil {
		t.Fatal(err)
	}
	// Same dataset again is fine.
	if err := w.Access("consultant", "bank-a"); err != nil {
		t.Errorf("repeat access: %v", err)
	}
	// A different dataset in the same class is forbidden.
	if err := w.Access("consultant", "bank-b"); !errors.Is(err, ErrWallViolation) {
		t.Errorf("want ErrWallViolation, got %v", err)
	}
	// Another class is unaffected.
	if err := w.Access("consultant", "oil-x"); err != nil {
		t.Errorf("cross-class access: %v", err)
	}
	// Another consultant is unaffected.
	if err := w.Access("other", "bank-b"); err != nil {
		t.Errorf("second subject: %v", err)
	}
	// Undeclared datasets are unrestricted.
	if err := w.Access("consultant", "public-data"); err != nil {
		t.Errorf("unclassified dataset: %v", err)
	}
}

func TestChineseWallCheckDoesNotRecord(t *testing.T) {
	w := NewChineseWall(nil)
	w.DeclareDataset("bank-a", "banking")
	w.DeclareDataset("bank-b", "banking")
	if err := w.Check("c", "bank-a"); err != nil {
		t.Fatal(err)
	}
	// Check alone must not bind the consultant to the class.
	if err := w.Access("c", "bank-b"); err != nil {
		t.Errorf("check must not record history: %v", err)
	}
}

func TestChineseWallHistoryAttribute(t *testing.T) {
	w := NewChineseWall(nil)
	w.DeclareDataset("bank-a", "banking")
	if err := w.Access("carol", "bank-a"); err != nil {
		t.Fatal(err)
	}
	req := policy.NewAccessRequest("carol", "bank-b", "read")
	bag, err := w.History().ResolveAttribute(context.Background(), req, policy.CategorySubject, "accessed-dataset")
	if err != nil {
		t.Fatal(err)
	}
	if !bag.Contains(policy.String("bank-a")) {
		t.Errorf("history attribute = %v", bag.Strings())
	}
}
