// Package fleet turns the single-process smtdramd daemon into a horizontally
// scalable service (DESIGN §16): a coordinator shards submissions across
// worker daemons via a consistent-hash ring keyed by the same
// Config.Fingerprint that names results everywhere else, and per-tenant token
// buckets sit in front of the existing bounded queue. Each worker keeps its
// own durable store; a key a worker does not hold is recomputed there.
//
// The ring is the load balancer's whole brain: because a fingerprint fully
// names a result, routing by fingerprint keeps dedup, LRU locality, and
// checkpoint-prefix reuse intact across scale-out, and a node join or leave
// remaps only ~1/N of the keyspace.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// DefaultVNodes is the per-node virtual-node count. 128 points per node keeps
// the max/min keyspace share under 1.25 (TestRingUniformity) while Add and
// Remove stay O(vnodes·log points).
const DefaultVNodes = 128

// Ring is a consistent-hash ring with virtual nodes. Placement is a pure
// function of the member names, so two processes that agree on membership —
// or one process across a restart — agree on every key's owner. Not
// goroutine-safe; callers guard it (the coordinator holds its own mutex).
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring with the given virtual-node count (<=0 selects
// DefaultVNodes) and initial members.
func NewRing(vnodes int, nodes ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, nodes: map[string]bool{}}
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// ringHash places one virtual node: the first 8 bytes of
// sha256("node#replica"), a keyed placement that no insertion order or seed
// can perturb — the determinism the restart-stability guarantee rests on.
func ringHash(s string) uint64 {
	h := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(h[:8])
}

// keyHash positions a key on the ring.
func keyHash(key string) uint64 { return ringHash("k|" + key) }

// Add inserts a node (no-op when present).
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("n|%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node (no-op when absent).
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
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

// Has reports membership.
func (r *Ring) Has(node string) bool { return r.nodes[node] }

// Len is the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes lists the members, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the node owning key: the first virtual node clockwise from
// the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (node string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.points[i%len(r.points)].node, true
}

// Shares returns each node's share of the keyspace (arc length / 2^64), a
// diagnostic for /v1/fleet and the uniformity tests. Shares sum to 1.
func (r *Ring) Shares() map[string]float64 {
	out := map[string]float64{}
	if len(r.points) == 0 {
		return out
	}
	const span = float64(math.MaxUint64) + 1
	// Point i owns the arc (points[i-1], points[i]]; the first point also
	// owns the wraparound arc from the last point.
	for i, p := range r.points {
		var arc uint64
		if i == 0 {
			arc = p.hash + (math.MaxUint64 - r.points[len(r.points)-1].hash) + 1
		} else {
			arc = p.hash - r.points[i-1].hash
		}
		out[p.node] += float64(arc) / span
	}
	return out
}
