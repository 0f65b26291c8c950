// Durable: the policy base survives kill -9. A PAP backed by the
// write-ahead log (internal/store) acknowledges each administrative write
// only after it is fsynced; the walkthrough (1) writes, revises and
// revokes policies through a backed store, (2) simulates a crash by
// abandoning the process state and recovering the data directory from
// scratch, (3) bootstraps a sharded PDP cluster from the recovered
// snapshot + WAL tail through the incremental delta pipeline, and (4)
// shows the recovered fleet serving exactly the acknowledged decisions —
// including the revocation, which a restart must never resurrect.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/pap"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "durable-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- before the crash: a backed PAP under administration ---
	lg, err := store.Open(dir, store.Options{SnapshotEvery: 8})
	if err != nil {
		log.Fatal(err)
	}
	adminPAP := pap.NewStore("org")
	if err := lg.Bootstrap(adminPAP, nil, "org-root", policy.DenyOverrides); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := adminPAP.Put(workload.ResourcePolicy(i, 4)); err != nil {
			log.Fatal(err)
		}
	}
	revoked := workload.ResourcePolicy(7, 4).EntityID()
	if err := adminPAP.Delete(revoked); err != nil {
		log.Fatal(err)
	}
	st := lg.Stats()
	fmt.Printf("acknowledged %d writes (%d fsync batches, %d snapshots, last seq %d)\n",
		st.Appends, st.Batches, st.Snapshots, st.LastSeq)
	fmt.Printf("policy %s revoked; kill -9 strikes now\n\n", revoked)
	// kill -9: no flush hook, no final compaction (Crash models it
	// in-process). Everything acknowledged is already on disk — that is
	// the whole point.
	if err := lg.Crash(); err != nil {
		log.Fatal(err)
	}

	// --- after the crash: recover into a sharded cluster ---
	rlg, err := store.Open(dir, store.Options{SnapshotEvery: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer rlg.Close()
	rst := rlg.Stats()
	fmt.Printf("recovered: %d snapshot entries + %d WAL tail records (%d torn bytes truncated)\n",
		rst.RecoveredSnapshot, rst.RecoveredTail, rst.TruncatedBytes)

	recoveredPAP := pap.NewStore("org")
	router, err := cluster.New("fleet", cluster.Config{Shards: 4, Replicas: 2, Strategy: ha.Failover})
	if err != nil {
		log.Fatal(err)
	}
	// Snapshot state installs as the root; the tail replays through
	// cluster.Router.ApplyUpdate — the same delta path live
	// administration uses — and the log reattaches as the PAP backend.
	if err := rlg.Bootstrap(recoveredPAP, router, "org-root", policy.DenyOverrides); err != nil {
		log.Fatal(err)
	}
	// Post-recovery administration flows on through the same delta path.
	recoveredPAP.Watch(func(u pap.Update) {
		if err := pap.Apply(router, recoveredPAP, u, "org-root", policy.DenyOverrides); err != nil {
			log.Fatal(err)
		}
	})

	// The owning role (i mod 4) may read resource i; probe as the owner.
	ownerRead := func(i int) policy.Result {
		return policy.Decide(context.Background(), router, policy.NewAccessRequest("alice", workload.ResourceID(i), "read").
			Add(policy.CategorySubject, "role", policy.String(workload.RoleID(i%4))), time.Time{})
	}
	for _, i := range []int{0, 7, 19} {
		fmt.Printf("  res-%-3d owner read -> %v\n", i, ownerRead(i).Decision)
	}
	fmt.Println("\nres-7 stays revoked across the crash: an acknowledged write is never lost,")
	fmt.Println("a torn one is never applied. New writes continue against the same log:")
	if _, err := recoveredPAP.Put(workload.ResourcePolicy(7, 4)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  res-7 re-granted -> %v (seq %d)\n", ownerRead(7).Decision, rlg.Stats().LastSeq)
}
