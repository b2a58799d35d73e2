// Package fleet implements the sharded multi-instance serving tier
// (DESIGN.md §10): a supervisor that runs N liteserve shards on ephemeral
// ports, a reverse-proxy router that consistent-hashes /recommend and
// /feedback by the same (app, datasize bucket, env fingerprint) key the
// per-shard cache already uses — so each shard stays hot on its slice of
// the keyspace — an active health checker that ejects slow or
// dead shards and re-admits them with backoff, and a flip coordinator that
// fans the trainer shard's validated model generations out to every
// follower (publish-then-flip).
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVnodes is the number of virtual nodes each member contributes to
// the ring. More vnodes smooth the key distribution across members and
// tighten the ~1/N key-movement bound on membership changes, at the cost
// of a larger sorted point list.
const DefaultVnodes = 128

// Ring is a consistent-hash ring with virtual nodes. Keys map to the
// first member point at or clockwise after the key's hash, so adding or
// removing one of N members moves only ~1/N of the keyspace and every
// other key keeps its owner. Safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []uint64          // sorted vnode hashes
	owner  map[uint64]string // vnode hash → member id
	member map[string]bool
}

// NewRing builds an empty ring; vnodes ≤ 0 uses DefaultVnodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{
		vnodes: vnodes,
		owner:  map[uint64]string{},
		member: map[string]bool{},
	}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts a member's vnodes. Reports whether membership changed
// (adding a present member is a no-op). On the vanishingly rare 64-bit
// point collision between two members the lexicographically smaller id
// wins, so ownership is deterministic regardless of add order.
func (r *Ring) Add(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.member[id] {
		return false
	}
	r.member[id] = true
	for i := 0; i < r.vnodes; i++ {
		p := hash64(fmt.Sprintf("%s#%d", id, i))
		if cur, ok := r.owner[p]; ok {
			if cur <= id {
				continue
			}
			r.owner[p] = id
			continue
		}
		r.owner[p] = id
		r.points = append(r.points, p)
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a] < r.points[b] })
	return true
}

// Remove deletes a member's vnodes; its arc falls to the clockwise
// successors. Reports whether membership changed.
func (r *Ring) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.member[id] {
		return false
	}
	delete(r.member, id)
	keep := r.points[:0]
	for _, p := range r.points {
		if r.owner[p] == id {
			delete(r.owner, p)
			// The point may belong to a collided survivor: re-derive it.
			if other, ok := r.reclaim(p); ok {
				r.owner[p] = other
				keep = append(keep, p)
			}
			continue
		}
		keep = append(keep, p)
	}
	r.points = keep
	return true
}

// reclaim finds the smallest surviving member that also hashes one of its
// vnodes to point p (collision bookkeeping for Remove).
func (r *Ring) reclaim(p uint64) (string, bool) {
	best := ""
	for id := range r.member {
		for i := 0; i < r.vnodes; i++ {
			if hash64(fmt.Sprintf("%s#%d", id, i)) == p && (best == "" || id < best) {
				best = id
			}
		}
	}
	return best, best != ""
}

// Len reports the current number of members.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}

// Lookup returns the member owning key; ok is false on an empty ring.
func (r *Ring) Lookup(key string) (string, bool) {
	ids := r.Successors(key, 1)
	if len(ids) == 0 {
		return "", false
	}
	return ids[0], true
}

// Successors returns up to n distinct members in ring order starting at
// the key's owner — the failover order a router walks when the owner is
// unreachable: the first entry is the owner, the rest are the members its
// arc would fall to.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		id := r.owner[r.points[(start+i)%len(r.points)]]
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
