// Package dht extends Zerber to a DHT-based infrastructure — the future
// direction the paper names in §3: "The extension of r-confidential
// indexing to a DHT-based infrastructure is an interesting area for
// future research."
//
// Design. Zerber's security model ties each secret share to a public
// x-coordinate: share i of every element is the sharing polynomial
// evaluated at x_i. We therefore keep n logical *share slots* (one per
// x-coordinate) and give each slot its own consistent-hashing ring of
// physical nodes. Within slot i, merged posting lists are partitioned
// across the slot's nodes by hashing the list ID; each physical node
// stores only a fraction of the index (the defining property of a DHT,
// §3). A node is a storage engine (store.Store), and so is the Slot: it
// routes every keyed store call to the node authoritative for the list.
// One index server runs over each slot, exactly as over a single
// engine, so authentication, group checks, op dedup and stats stay in
// one place and peers and clients work unmodified.
//
// Membership is online. A node joins or leaves while the slot serves,
// and each list whose ring owner changes moves with plain store calls:
// copy the list to its new node, replay the writes that landed
// meanwhile, flip routing under the routing lock (migrate.go). A move
// always completes before AddNode or RemoveNode returns.
//
// Confidentiality is preserved: a compromised physical node sees (a) a
// subset of merged posting lists — lengths of merged lists leak no more
// than before, and (b) shares from a single slot — fewer than k slots
// means information-theoretically nothing. Compromising an entire slot
// ring is exactly as hard as compromising one monolithic server was.
package dht

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"zerber/internal/merging"
)

// ringHash places keys and nodes on the 64-bit ring. FNV alone mixes
// short, similar strings ("node0#1", "node0#2", ...) poorly in the high
// bits, which skews arc lengths badly; a splitmix64 finalizer fixes the
// avalanche.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) // never fails
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Steele et al.), a bijective mixer
// with full avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// listKey is the ring key of a merged posting list: ringHash of
// "list:<lid>", built in a stack buffer. Every store call on a Slot
// hashes one, and the store contract holds a Scan to one allocation
// (TestScanAllocatesOnce), which fmt.Sprintf would break.
func listKey(lid merging.ListID) uint64 {
	var buf [32]byte
	h := fnv.New64a()
	h.Write(strconv.AppendUint(append(buf[:0], "list:"...), uint64(lid), 10)) // never fails
	return mix64(h.Sum64())
}

// vnodes is how many points each physical node takes on the ring: more
// points even out the nodes' shares of the lists (TestRingBalance) and
// lengthen every lookup's search.
const vnodes = 32

// Ring is a consistent-hashing ring with virtual nodes. It has no lock
// of its own: a Slot reads and changes its ring only under the slot's
// routing lock.
type Ring struct {
	points  []point // sorted by position
	nodeSet map[string]struct{}
}

type point struct {
	pos  uint64
	node string
}

// ErrEmptyRing reports lookups on a ring with no nodes.
var ErrEmptyRing = errors.New("dht: ring has no nodes")

// NewRing creates an empty ring.
func NewRing() *Ring {
	return &Ring{nodeSet: make(map[string]struct{})}
}

// AddNode places a node on the ring (idempotent).
func (r *Ring) AddNode(name string) {
	if _, dup := r.nodeSet[name]; dup {
		return
	}
	r.nodeSet[name] = struct{}{}
	for v := 0; v < vnodes; v++ {
		r.points = append(r.points, point{
			pos:  ringHash(fmt.Sprintf("%s#%d", name, v)),
			node: name,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].pos < r.points[j].pos })
}

// RemoveNode takes a node off the ring; it reports whether it was present.
func (r *Ring) RemoveNode(name string) bool {
	if _, ok := r.nodeSet[name]; !ok {
		return false
	}
	delete(r.nodeSet, name)
	out := r.points[:0]
	for _, p := range r.points {
		if p.node != name {
			out = append(out, p)
		}
	}
	r.points = out
	return true
}

// Owner returns the node responsible for a key: the first virtual node
// clockwise from the key's position.
func (r *Ring) Owner(key uint64) (string, error) {
	if len(r.points) == 0 {
		return "", ErrEmptyRing
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= key })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].node, nil
}

// OwnerOfList returns the node responsible for a merged posting list.
func (r *Ring) OwnerOfList(lid merging.ListID) (string, error) {
	return r.Owner(listKey(lid))
}

// Nodes returns the sorted physical node names.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodeSet))
	for n := range r.nodeSet {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumNodes returns the number of physical nodes.
func (r *Ring) NumNodes() int {
	return len(r.nodeSet)
}
