package cluster

import (
	"cmp"
	"hash/fnv"
	"slices"
	"strconv"
)

// virtualNodes is the number of ring points each shard projects: enough
// to balance ownership to within a few percent for small shard counts
// while keeping the ring tiny.
const virtualNodes = 128

// point is one virtual node of the consistent-hash ring: the hash of
// "<shard name>#<i>" and the owning shard's position in Router.shards.
type point struct {
	hash  uint64
	shard int
}

// ringPoints projects every shard onto the ring at virtualNodes points,
// ascending by hash. Spreading each shard over many points keeps ownership
// even, and a membership change moves only ~1/N of the key space (Section
// 3 of the paper argues the decision point must scale with the resource
// population; the ring is what lets the policy base be split across
// engines without a central routing table).
func ringPoints(shards []*shard) []point {
	points := make([]point, 0, len(shards)*virtualNodes)
	for o, s := range shards {
		for i := 0; i < virtualNodes; i++ {
			points = append(points, point{hash: hashKey(s.name + "#" + strconv.Itoa(i)), shard: o})
		}
	}
	slices.SortFunc(points, func(a, b point) int { return cmp.Compare(a.hash, b.hash) })
	return points
}

// hashKey hashes a key onto the ring. FNV-1a alone distributes short,
// similar keys (shard-0#1, shard-0#2, ...) poorly across the 64-bit
// space, so a splitmix64 finaliser avalanches the bits.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ringOwner returns the position of the shard owning key: the first ring
// point at or after the key's hash, wrapping to the lowest. points must be
// non-empty.
func ringOwner(points []point, key string) int {
	h := hashKey(key)
	lo, hi := 0, len(points)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if points[m].hash < h {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(points) {
		lo = 0
	}
	return points[lo].shard
}
