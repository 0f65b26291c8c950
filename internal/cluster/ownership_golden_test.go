package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenKeys is the number of res-%d keys each ownership digest covers.
const goldenKeys = 10000

// ownershipDigest hashes "key owner" lines for res-0 .. res-9999 as the
// router currently assigns them.
func ownershipDigest(t *testing.T, r *Router) string {
	t.Helper()
	h := sha256.New()
	for i := 0; i < goldenKeys; i++ {
		key := fmt.Sprintf("res-%d", i)
		owner, ok := r.Owner(key)
		if !ok {
			t.Fatalf("no owner for %s", key)
		}
		fmt.Fprintf(h, "%s %s\n", key, owner)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOwnershipGolden pins which shard owns each of 10 000 keys at 1, 2, 4
// and 16 shards, and after every step of a fixed AddShard/RemoveShard
// sequence. Ownership is observable (Router.Owner, per-shard loads and
// metrics), so a drift in key hashing, virtual-node naming, the number of
// points per shard or the "first point at or after the hash, wrapping to
// the lowest" rule must fail here rather than pass unnoticed.
func TestOwnershipGolden(t *testing.T) {
	check := func(where string, r *Router, want string) {
		t.Helper()
		if got := ownershipDigest(t, r); got != want {
			t.Errorf("%s: ownership digest %s, want %s", where, got, want)
		}
	}
	for _, c := range []struct {
		shards int
		want   string
	}{
		{1, "e30fa70af0a3ff3e5bb40cc9859e0925a9564028923a2d31e149ceb2b33148ba"},
		{2, "dfeb10e5cc9de7a2ac58d42abad30d51b345632e6cfde2fd5fd054a02d28277b"},
		{4, "2cb4e29b0dba4496e8e26772eb827ed41299ec154323686371e7abf37bbec2dc"},
		{16, "9d4159f9b1e9341ef6cc860dd3bf10fc014d796b71567c831436b3f0fcb11534"},
	} {
		r, err := New("golden", Config{Shards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%d shards", c.shards), r, c.want)
	}

	r, err := New("golden", Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		op, shard string // op "add" names the shard AddShard must return
		want      string
	}{
		{"add", "golden/shard-4", "92a753ce23f34a8cc8455dfbfdc7cac6146e2a80a5b18676dba5d39c7f21e7eb"},
		{"add", "golden/shard-5", "1511fd123917b6a91317e3fb711fb9a8c52b7cc39b0eb1bb9d3e6f6b73a0b6be"},
		{"remove", "golden/shard-1", "38e8a1df6c9ed85a7f586c235fbca22efdd7195a720b056bca2a1967f3cfdc7f"},
		{"add", "golden/shard-6", "482f97a2aee45ce9c93fe7bb8f460c76d8e59ed0b52649f40c379c02c215c106"},
		{"remove", "golden/shard-4", "27d07943b6905f8d6823264654feabb6bae4e5bb8d8c19d286d94b5d374c8015"},
		{"remove", "golden/shard-0", "21738215c7fd6bc02b838f17632afeb41cb8fb7afbad8d9e622cd0ad1e23121f"},
	} {
		switch step.op {
		case "add":
			name, err := r.AddShard()
			if err != nil || name != step.shard {
				t.Fatalf("AddShard = %q, %v; want %q", name, err, step.shard)
			}
		case "remove":
			if err := r.RemoveShard(step.shard); err != nil {
				t.Fatal(err)
			}
		}
		check(step.op+" "+step.shard, r, step.want)
	}
}
