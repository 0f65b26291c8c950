package cluster

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/policy"
)

// AnalyzeBase runs the static policy analysis shard by shard over the
// partitioned base and merges the per-shard reports into one.
//
// The aggregation is lossless: every pairwise finding requires its two
// claims to overlap on the resource dimension, so they either share an
// exact resource key — and the key's owning shard serves both children —
// or one of them is a catch-all, which repartitioning replicates to every
// shard. Any finding pair therefore co-resides on at least one shard;
// findings discovered on several shards deduplicate in analysis.Merge.
// Single-policy findings surface on whichever shards serve the policy.
//
// A zero cfg.RootCombining defaults to the installed root's combining
// algorithm. The router's read lock is held across the analysis, so a
// concurrent rebalance cannot tear the shard slices mid-scan; decisions
// (also read-locked) proceed concurrently.
func (r *Router) AnalyzeBase(cfg analysis.Config) (analysis.Report, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.root == nil {
		return analysis.Report{}, fmt.Errorf("cluster %s: no policy base installed", r.name)
	}
	set, partitionable := r.root.(*policy.PolicySet)
	if !partitionable {
		return analysis.Analyze(cfg, r.root), nil
	}
	if cfg.RootCombining == 0 {
		cfg.RootCombining = set.Combining
	}
	reports := make([]analysis.Report, 0, len(r.shards))
	for _, s := range r.shards {
		reports = append(reports, analysis.Analyze(cfg, s.installedChildren()...))
	}
	return analysis.Merge(reports...), nil
}
