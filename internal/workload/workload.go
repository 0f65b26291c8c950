// Package workload synthesises the populations and request streams the
// experiments run against: users with roles, resources with Zipf-skewed
// popularity, Poisson arrivals, and bulk policy-base generation for the
// scalability experiments (Section 3 of the paper argues authorisation
// must scale to large user and resource bases; this package supplies
// those bases).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/pip"
	"repro/internal/policy"
)

// Config parameterises a workload.
type Config struct {
	// Users, Resources and Roles size the populations.
	Users     int
	Resources int
	Roles     int
	// Actions lists the operations in the mix; defaults to read/write.
	Actions []string
	// ZipfS is the skew of resource popularity (>1); 1.2 when zero.
	ZipfS float64
	// ReadFraction is the share of requests using Actions[0]; 0.8 when
	// zero.
	ReadFraction float64
	// MeanInterarrival spaces request arrivals for the Poisson process;
	// 10ms when zero.
	MeanInterarrival time.Duration
	// Seed makes the workload reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Actions) == 0 {
		c.Actions = []string{"read", "write"}
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.8
	}
	if c.MeanInterarrival == 0 {
		c.MeanInterarrival = 10 * time.Millisecond
	}
	return c
}

// Generator produces deterministic request streams.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewGenerator builds a generator from the config.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.Resources > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Resources-1))
	}
	return &Generator{cfg: cfg, rng: rng, zipf: zipf}
}

// UserID names the i-th user.
func UserID(i int) string { return fmt.Sprintf("user-%d", i) }

// ResourceID names the i-th resource.
func ResourceID(i int) string { return fmt.Sprintf("res-%d", i) }

// RoleID names the i-th role.
func RoleID(i int) string { return fmt.Sprintf("role-%d", i) }

// NextRequest draws one access request: a uniform user, a Zipf-popular
// resource, and an action from the read/write mix.
//
// The request is cold: it carries only the subject/resource/action
// identifiers, no subject attributes. Decisions over cold requests rely on
// the live resolution path — the engine fetches roles mid-evaluation from
// the information point wired in via pdp.WithResolver (or a domain's
// attached PIP chain). WarmRequest is the pre-resolved counterpart.
func (g *Generator) NextRequest() *policy.Request {
	user, res, action := g.draw()
	return policy.NewAccessRequest(UserID(user), ResourceID(res), action)
}

// WarmRequest draws one access request with the subject's role attribute
// pre-populated, modelling a caller that resolved attributes itself before
// asking for a decision. The cold/warm pair is the ablation axis of the
// cold-subject scenario: identical decisions, different place of
// resolution.
func (g *Generator) WarmRequest() *policy.Request {
	user, res, action := g.draw()
	return policy.NewAccessRequest(UserID(user), ResourceID(res), action).
		Add(policy.CategorySubject, policy.AttrSubjectRole, policy.String(RoleID(user%g.cfg.Roles)))
}

// draw samples the (user, resource, action) triple shared by the cold and
// warm request forms.
func (g *Generator) draw() (user, res int, action string) {
	user = g.rng.Intn(g.cfg.Users)
	if g.zipf != nil {
		res = int(g.zipf.Uint64())
	}
	action = g.cfg.Actions[0]
	if g.rng.Float64() >= g.cfg.ReadFraction && len(g.cfg.Actions) > 1 {
		action = g.cfg.Actions[1+g.rng.Intn(len(g.cfg.Actions)-1)]
	}
	return user, res, action
}

// Requests draws n access requests, the bulk form of NextRequest used by
// batch-decision experiments and benchmarks.
func (g *Generator) Requests(n int) []*policy.Request {
	reqs := make([]*policy.Request, n)
	for i := range reqs {
		reqs[i] = g.NextRequest()
	}
	return reqs
}

// NextInterarrival draws an exponential interarrival time for the Poisson
// arrival process.
func (g *Generator) NextInterarrival() time.Duration {
	u := g.rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := time.Duration(-math.Log(u) * float64(g.cfg.MeanInterarrival))
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}

// Directory provisions a subject directory where user i holds role
// i mod Roles, the identity-provider population of the experiments.
func (g *Generator) Directory(name string) *pip.Directory {
	dir := pip.NewDirectory(name)
	for i := 0; i < g.cfg.Users; i++ {
		dir.AddSubject(pip.Subject{
			ID:    UserID(i),
			Roles: []string{RoleID(i % g.cfg.Roles)},
		})
	}
	return dir
}

// InformationPoints builds the standard PIP stack for the cold-subject
// scenario: the directory population behind a TTL cache that coalesces
// concurrent misses (pip.NewCachedChain), ready to hand to
// pdp.WithResolver (or a domain's UsePIP).
func (g *Generator) InformationPoints(name string, ttl time.Duration) *pip.Cache {
	return pip.NewCachedChain(name, ttl, g.Directory(name+"-idp"))
}

// ResourcePolicy builds the administered policy of resource i under a
// population with the given role count: the owning role (i mod roles) may
// read and write, everyone else is denied. It is the per-resource child of
// PolicyBase and the write unit of the policy-churn experiment and
// benchmark, shared so a rewritten child is always semantically identical
// to the original.
func ResourcePolicy(i, roles int) *policy.Policy {
	role := RoleID(i % roles)
	return policy.NewPolicy(fmt.Sprintf("pol-%s", ResourceID(i))).
		Combining(policy.FirstApplicable).
		When(policy.MatchResourceID(ResourceID(i))).
		Rule(policy.Permit("owner-read").
			When(policy.MatchRole(role), policy.MatchActionID("read")).
			Build()).
		Rule(policy.Permit("owner-write").
			When(policy.MatchRole(role), policy.MatchActionID("write")).
			Build()).
		Rule(policy.Deny("default").Build()).
		Build()
}

// PolicyBase builds one policy per resource permitting reads to the role
// owning the resource (role r owns resources where i mod Roles == r) and
// denying everything else — the bulk policy base of the scalability
// benchmarks and the miss-path and analysis scale tests.
func (g *Generator) PolicyBase(rootID string) *policy.PolicySet {
	b := policy.NewPolicySet(rootID).Combining(policy.DenyOverrides)
	for i := 0; i < g.cfg.Resources; i++ {
		b.Add(ResourcePolicy(i, g.cfg.Roles))
	}
	return b.Build()
}
