package main

import "fmt"

// Frozen constants. They are part of the benchmark's definition: a later
// change that edits one is a new benchmark and needs a new baseline.
// Nothing here is derived at run time.
const (
	roles = 16 // role u%roles owns resource i iff i%roles == u%roles

	hitUsers     = 32  // 32 users × 128 resources × {read,write} = 8 192 cache keys
	hitResources = 128 // and 128 resource policies: the whole base fits every cache

	missUsers     = 50000 // × 4 096 resources × 2 actions ≈ 4·10⁸ keys ≫ any cache
	missResources = 4096
	vetoPolicies  = 32 // organisation-wide conditional policies beside the 4 096
	vetoModulus   = 97 // users with u%97 == 0 have clearance 0 and are always denied
	clearanceOK   = vetoPolicies + 1

	zipfS        = 1.2 // resource popularity skew
	readFraction = 0.8

	batchSize = 64 // requests per /decide-batch envelope

	maxConns = 2 // connections the generator opens at most: nproc of the builder

	// rateHitOpen is the open-loop arrival rate of hit.open: half the
	// closed-loop capacity of the same population on the 2-CPU builder
	// (see README "How the constants were set"), rounded to 100/s.
	rateHitOpen = 3000

	churnWritesPerS = 50 // admin writer pace in churn.mixed

	decideBudgetMs = 250  // deadline of one /decide call, from its due instant
	batchBudgetMs  = 1000 // deadline of one 64-request /decide-batch call

	// Set-ups per untraced run; setup_s is their median. The warm
	// deployments come up in ~1.4 s, where scheduling noise is a larger
	// share, so they get five; the cold ones (~8 s each) get three.
	setupsWarm = 5
	setupsCold = 3

	ladderCalls      = 5000 // calls replayed through every in-process rung
	ladderBatchCalls = 256  // the same for batch.closed: 256 envelopes of 64
	ladderWrites     = 128  // policy writes replayed through the write rungs

	// missPoolPerS sizes the pre-encoded request stream of the cold
	// workloads, which must never wrap (a wrap would turn misses into
	// cache hits): decisions per second of window, ≈ 4× what the builder
	// measured. A daemon faster than that ends the window early.
	missPoolPerS  = 12000
	batchPoolPerS = 40000
)

// spec is one named workload: traffic mix. Only traffic and policy base differ
// between workloads; the deployment under test is the same for all.
type spec struct {
	name string
	why  string
	// users × resources is the request population; veto adds the
	// conditional tier to the base and makes requests cold (no subject
	// attributes, so roles and clearance come from the PIP).
	users, resources int
	veto             bool
	// batch is the number of requests per envelope: 1 posts to /decide,
	// more to /decide-batch.
	batch int
	// clients is the number of closed-loop decision connections; openRate
	// > 0 replaces the closed loop with Poisson arrivals over the same
	// number of connections.
	clients  int
	openRate float64
	// writesPerS > 0 adds one paced admin-writer connection.
	writesPerS float64
	// setups is how often an untraced run sets the deployment up.
	setups int
}

var workloads = []spec{
	{
		name: "hit.open",
		why: "warm 8k-key population at half capacity, open loop: engine does ~100 ns, so wire/xacml/HTTP/resilience/cluster are the whole bill; " +
			"engine-miss work must show no change here",
		users: hitUsers, resources: hitResources, batch: 1, clients: 2, openRate: rateHitOpen, setups: setupsWarm,
	},
	{
		name: "miss.closed",
		why: "cold requests over 4e8 keys against 4096 policies + 32 conditional vetoes: every decision pays compiled miss, interpreter fallback, " +
			"PIP and cache insert, so pdp/policy/pip carry their largest share",
		users: missUsers, resources: missResources, veto: true, batch: 1, clients: 2, setups: setupsCold,
	},
	{
		name: "batch.closed",
		why: "the miss stream in 64-request /decide-batch envelopes: HTTP and envelope amortised 64x, so the xacml codec and the " +
			"cluster/ha/pdp scatter path dominate; a single-request gain that costs the batch path shows here",
		users: missUsers, resources: missResources, veto: true, batch: batchSize, clients: 2, setups: setupsCold,
	},
	{
		name: "churn.mixed",
		why: "one closed-loop reader on the hit population beside 50 policy writes/s: pap, analysis gate, WAL fsync, delta ApplyUpdate and " +
			"cache invalidation; read gains bought with costlier writes (or the reverse) show here",
		users: hitUsers, resources: hitResources, batch: 1, clients: 1, writesPerS: churnWritesPerS, setups: setupsWarm,
	},
}

func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// budgetMs is the deadline of one call of the workload.
func (w spec) budgetMs() int {
	if w.batch > 1 {
		return batchBudgetMs
	}
	return decideBudgetMs
}

// endpoint is the daemon path the workload's decision calls post to.
func (w spec) endpoint() string {
	if w.batch > 1 {
		return "/decide-batch"
	}
	return "/decide"
}

// constants is the frozen-constant block every output file records.
func constants() map[string]float64 {
	return map[string]float64{
		"roles": roles, "hit_users": hitUsers, "hit_resources": hitResources,
		"miss_users": missUsers, "miss_resources": missResources,
		"veto_policies": vetoPolicies, "veto_modulus": vetoModulus,
		"zipf_s": zipfS, "read_fraction": readFraction, "batch_size": batchSize, "max_conns": maxConns,
		"rate_hit_open": rateHitOpen, "churn_writes_per_s": churnWritesPerS,
		"decide_budget_ms": decideBudgetMs, "batch_budget_ms": batchBudgetMs,
		"setups_warm": setupsWarm, "setups_cold": setupsCold, "ladder_calls": ladderCalls, "ladder_batch_calls": ladderBatchCalls,
		"ladder_writes": ladderWrites, "miss_pool_per_s": missPoolPerS,
		"batch_pool_per_s": batchPoolPerS,
	}
}
