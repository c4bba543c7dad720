package gateway

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over replica indices. Each replica owns
// VirtualNodes points on the ring, so load spreads evenly even with a
// handful of replicas, and removing (ejecting) one replica only remaps
// the keys it owned — the other replicas' assignments are untouched.
// The ring is immutable after construction; health is filtered at lookup
// time by the caller walking the Sequence.
type Ring struct {
	points []ringPoint
	n      int
}

type ringPoint struct {
	hash    uint64
	replica int
}

// hashKey is the ring's position function: FNV-1a folded through a
// murmur3-style finaliser. Bare FNV-1a lacks final avalanche — the
// near-identical short keys ring positions are derived from ("replica-0#1",
// "replica-0#2", ...) come out as near-sequential hashes and the ring
// collapses into a few giant arcs; the finaliser decorrelates them.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// NewRing builds a ring over replicas 0..n-1 with the given number of
// virtual nodes per replica (minimum 1).
func NewRing(n, virtualNodes int) *Ring {
	virtualNodes = max(virtualNodes, 1)
	r := &Ring{points: make([]ringPoint, 0, n*virtualNodes), n: n}
	for i := 0; i < n; i++ {
		for v := 0; v < virtualNodes; v++ {
			key := "replica-" + strconv.Itoa(i) + "#" + strconv.Itoa(v)
			r.points = append(r.points, ringPoint{hash: hashKey(key), replica: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

// Len returns the number of replicas on the ring.
func (r *Ring) Len() int { return r.n }

// Sequence returns every replica exactly once, ordered by ring position
// starting at key's successor: element 0 is the primary owner of key,
// element 1 the hedge/failover target, and so on. Appended to dst so the
// request path can reuse a scratch slice.
func (r *Ring) Sequence(dst []int, key string) []int {
	if r.n == 0 {
		return dst
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := 0
	var mask uint64 // replica sets are small; a bitmask dedups without allocating
	for i := 0; i < len(r.points) && seen < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if p.replica < 64 {
			if mask&(1<<uint(p.replica)) != 0 {
				continue
			}
			mask |= 1 << uint(p.replica)
		} else {
			dup := false
			for _, d := range dst {
				if d == p.replica {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		dst = append(dst, p.replica)
		seen++
	}
	return dst
}
