// Package analysis is the Section 3.1 conflict analyser of the paper
// (after Lupu & Sloman), widened into a full lint pass over the
// authorisation claims of a policy base and made incremental so it can
// gate the live administration plane. CheckSoD tests separation-of-duty
// meta-policies over the same claims.
//
// # Finding taxonomy
//
// Every finding has a Kind and a Severity:
//
//   - conflict (KindConflict): a permit claim and a deny claim cover a
//     shared access tuple — the paper's modality conflict. Actual when
//     both rules are condition-free (the clash will certainly fire);
//     potential otherwise. An actual conflict between two different
//     root children is SeverityError; everything else is a warning,
//     matching the admission rule that a clash inside one policy is the
//     author's combining choice.
//   - shadow (KindShadow): under an order-dependent combining algorithm
//     (first-applicable), an earlier condition-free rule covers every
//     tuple a later rule covers, so the later rule can never fire.
//     Cross-policy shadowing is SeverityError; shadowing a later rule of
//     the same policy is a warning.
//   - dead-zone (KindDeadZone): under a precedence algorithm, a
//     condition-free rule of the winning modality covers a rule of the
//     losing modality — e.g. any permit behind a wildcard deny under
//     deny-overrides. The covered rule can never decide. Warning.
//   - redundancy (KindRedundancy): a condition-free claim covers another
//     claim of the same effect: removing the covered rule changes no
//     decision. Warning.
//   - dead-attribute (KindDeadAttribute): a target match or condition
//     designator references an attribute no registered information
//     source (pip.Introspector) and no conventional request bag can ever
//     supply, so the reference always resolves to an empty bag. Warning.
//
// # Incremental engine
//
// Engine keeps the claim base indexed by the exact resource identifiers
// each claim constrains (the key space of the compiled PDP program's
// resource-id posting lists and of the cluster partitioner). Applying one
// policy delta re-analyses only the changed child against the owners whose
// claims can overlap it — near-constant work under the per-resource policy
// shape the repository's workloads model — and is property-tested against
// a quadratic reference that runs every claim pair of the final base.
// Analyze is the from-scratch form; a cluster.Router can aggregate
// per-shard reports with Merge.
//
// Universal claims are tallied, not paired. A claim is universal when,
// after set-target narrowing, it constrains none of the five dimensions —
// an organisation-wide rule such as a target-less veto; a condition is not
// a constraint. Against a non-universal claim of another owner it always
// overlaps and covers, and is never covered, so the pair's findings depend
// only on the universal claim, the root algorithm, the other claim's
// effect and condition flag, and (under first-applicable) which owner
// sorts first. The engine therefore keeps one count per universal owner
// and such class of distinct refs, not one finding per pair, and indexes
// owners by their non-universal claims only. Universal pairs among
// themselves, intra-owner pairs and non-universal pairs stand one finding
// each, in a set holding no Go pointers (interned ids in one map,
// per-owner slices of keys) that costs the garbage collector nothing to
// mark. Stats and Summary are arithmetic over both; Report and Preview
// expand the classes through the same pair analysis on the way out. The
// cost of Install and of the live heap is per policy: the bench's 32
// vetoes over 4 096 resource policies stand 262 144 findings as 64 class
// counts.
//
// # Gating
//
// Gate wraps an Engine's Preview for the admin plane: off disables
// linting, warn annotates writes with their findings, strict additionally
// rejects a write whose own findings include a SeverityError (an actual
// cross-policy conflict or a cross-policy shadow). GateStore is the one
// way a policy store is gated: it seeds an Engine from the store under
// the watcher that keeps it current and registers the Gate as the store's
// pre-commit hook, so every veto is serialised with the writers. The pdpd
// daemon gates its store so in the -policy-lint mode; the core facade
// gates every domain's administration point so in strict mode.
package analysis
