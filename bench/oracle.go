package main

// decision is the benchmark's own view of a PDP answer: conclusive Permit
// or Deny, or anything else (NotApplicable, Indeterminate, undecodable),
// which no workload here ever expects.
type decision uint8

const (
	other decision = iota
	permit
	deny
)

func (d decision) String() string {
	switch d {
	case permit:
		return "Permit"
	case deny:
		return "Deny"
	}
	return "other"
}

// expect is the closed-form oracle every reply is checked against. Role
// user%roles owns resource i iff i%roles == user%roles and may read and
// write it; everyone else falls to the resource policy's default Deny.
// Under the veto tier (miss.closed, batch.closed) a user with
// user%vetoModulus == 0 has clearance 0, trips every organisation-wide
// veto policy and is denied whatever the resource says. Churn rewrites
// are semantically identical, so they never change the expectation.
func expect(user, resource int, veto bool) decision {
	if veto && user%vetoModulus == 0 {
		return deny
	}
	if user%roles == resource%roles {
		return permit
	}
	return deny
}
