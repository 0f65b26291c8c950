package main

import (
	"strconv"
	"testing"
)

func TestOracle(t *testing.T) {
	for _, c := range []struct {
		name           string
		user, resource int
		veto           bool
		want           decision
	}{
		{"warm owner", 3, 19, false, permit},  // 3%16 == 19%16
		{"warm stranger", 3, 20, false, deny}, // default rule
		{"warm ignores the veto tier", 97, 1, false, permit},
		{"cold owner", 50, 18, true, permit}, // 50%16 == 2 == 18%16
		{"cold stranger", 50, 19, true, deny},
		{"veto beats ownership", 97, 1, true, deny}, // 97%97 == 0, and 97%16 == 1
		{"user 0 is vetoed", 0, 16, true, deny},
		{"user 0 warm owns resource 16", 0, 16, false, permit},
	} {
		if got := expect(c.user, c.resource, c.veto); got != c.want {
			t.Errorf("%s: expect(%d, %d, %v) = %s, want %s", c.name, c.user, c.resource, c.veto, got, c.want)
		}
	}
}

// TestSubjectsMirrorTheOracle: the directory the daemon is given is the
// same closed form the oracle uses.
func TestSubjectsMirrorTheOracle(t *testing.T) {
	for u := 0; u < 300; u++ {
		s := subjectOf(u)
		if vetoed := s.Clearance < vetoPolicies; vetoed != (u%vetoModulus == 0) {
			t.Errorf("user %d: clearance %d, vetoed=%v", u, s.Clearance, vetoed)
		}
		if want := "role-" + strconv.Itoa(u%roles); len(s.Roles) != 1 || s.Roles[0] != want {
			t.Errorf("user %d: roles %v, want [%s]", u, s.Roles, want)
		}
	}
}

// TestBatchPositions: expectation i of an encoded call belongs to access i.
func TestBatchPositions(t *testing.T) {
	w := spec{users: 200, resources: 64, veto: true, batch: 4}
	group := []access{{user: 97, resource: 1}, {user: 2, resource: 18, write: true}, {user: 2, resource: 19}, {user: 194, resource: 2}}
	c, err := encodeCall(w, "t", group)
	if err != nil {
		t.Fatal(err)
	}
	want := []decision{deny, permit, deny, deny}
	for i := range want {
		if c.expect[i] != want[i] {
			t.Errorf("position %d: expect %s, want %s", i, c.expect[i], want[i])
		}
	}
}
