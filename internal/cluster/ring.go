package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Consistent-hash ring: the shape-affinity placement policy of the router.
//
// Every admitted worker owns VNodes pseudo-random points on a 64-bit
// keyspace circle; a request's route key (its transform ShapeKey) hashes
// to a point and walks clockwise to the first worker point. Two properties make this the right structure for
// shape sharding:
//
//   - stability: one shape always lands on one worker (until membership
//     changes), so that worker's plan cache and scratch pools stay
//     hot for exactly the shard it owns — the serving-layer analogue of
//     the paper's per-node data locality;
//   - minimal remapping: a worker joining or leaving moves only the keys
//     in the arcs it gains or gives up (≈1/N of the keyspace), leaving
//     every other worker's warm shard untouched — unlike modular hashing,
//     which reshuffles nearly everything.
//
// Continuing the clockwise walk past the owner yields the failover order:
// Lookup(key, n) returns the first n distinct workers, and the router
// tries them in sequence when the primary is unavailable.
//
// A Ring is immutable; the router builds a fresh one from the current
// up-member set on every membership or health transition.

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring over a member set.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string    // distinct, sorted
	vnodes  int
}

// DefaultVNodes is the virtual-node count per member: enough that member
// keyspace shares concentrate near 1/N (the distribution-uniformity test
// pins the spread) while keeping ring rebuilds trivially cheap. At 64 the
// share spread across 8 members still reached 0.2x–1.6x of fair; 256
// brings it inside roughly ±35%.
const DefaultVNodes = 256

// NewRing builds a ring of the given members with vnodes virtual nodes
// each (DefaultVNodes when vnodes <= 0). Duplicate members collapse.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	r := &Ring{vnodes: vnodes}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hashKey(m + "#" + strconv.Itoa(v)),
				member: m,
			})
		}
	}
	sort.Strings(r.members)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// hashKey maps a string onto the keyspace circle: FNV-1a (64-bit) under a
// finalizer mix. Raw FNV-1a of near-identical strings — virtual-node labels
// differ only in a trailing counter — lands correlated positions that skew
// member shares up to 1.7x of fair; the multiply-xorshift finalizer
// (MurmurHash3's fmix64) decorrelates them.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Members returns the distinct member set, sorted.
func (r *Ring) Members() []string { return r.members }

// Size returns the distinct member count.
func (r *Ring) Size() int { return len(r.members) }

// Owner returns the member owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if got := r.Lookup(key, 1); len(got) == 1 {
		return got[0]
	}
	return ""
}

// Lookup returns up to n distinct members in preference order for key: the
// owner first, then each next distinct member clockwise — the router's
// failover sequence.
func (r *Ring) Lookup(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}

// Shares returns each member's share of the keyspace (arc length / 2^64) —
// the /debug/fftx/cluster view of how evenly the ring spreads shapes.
func (r *Ring) Shares() map[string]float64 {
	shares := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return shares
	}
	const keyspace = float64(1<<63) * 2
	for i, p := range r.points {
		// The arc ending at point i is owned by point i's member.
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		arc := p.hash - prev // wraps correctly in uint64 for i == 0
		shares[p.member] += float64(arc) / keyspace
	}
	return shares
}
