package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// Ring is a consistent-hash ring mapping resource keys to shard names.
// Every shard is projected onto the ring at vnodes points, so ownership is
// spread evenly and membership changes move only ~1/N of the key space
// (Section 3 of the paper argues the decision point must scale with the
// resource population; the ring is what lets the policy base be split
// across engines without a central routing table).
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	points []point // ascending by hash
	nodes  map[string]struct{}
}

type point struct {
	hash uint64
	node string
}

// DefaultVirtualNodes balances ownership to within a few percent for small
// shard counts while keeping the ring tiny.
const DefaultVirtualNodes = 128

// NewRing builds an empty ring; vnodes <= 0 selects DefaultVirtualNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]struct{})}
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

// Add projects a node onto the ring. Adding an existing node is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hashKey(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove takes a node off the ring; its key range folds into the
// clockwise successors. Removing an unknown node is a no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the node owning the key: the first ring point at or after
// the key's hash, wrapping at the top. ok is false on an empty ring.
func (r *Ring) Owner(key string) (node string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node, true
}

// Len reports the number of member nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}
