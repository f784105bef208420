package client

import (
	"math/bits"
	"sync"

	"zerber/internal/field"
	"zerber/internal/shamir"
)

// recCacheCap bounds the reconstructor cache. A Lagrange basis is keyed
// by the set of servers whose shares it consumes; a steady cluster
// produces a handful of distinct sets (the k fastest responders), while
// failures add a few more. 64 entries hold every subset a realistic
// fan-out cycles through, at ~3 cache lines per entry, and the FIFO
// eviction below keeps pathological subsets (one-off stragglers) from
// growing the map without bound.
const recCacheCap = 64

// basis is the Lagrange basis for one k-subset of the client's servers,
// in the shape the join's share matrix wants it: held is the subset as a
// holder mask (bit i = servers[i]), cols the same servers as ascending
// column indices, and rec consumes their shares in that order. A basis
// is immutable, so one entry serves concurrent queries.
type basis struct {
	held uint64
	cols []int
	rec  *shamir.Reconstructor
}

// recCache memoizes bases per holder mask, so repeated queries against
// the same responding servers — the hot-term case the Zipfian workload
// hammers — skip the O(k²) basis computation and its k field inversions
// entirely.
type recCache struct {
	mu    sync.Mutex
	m     map[uint64]*basis
	order []uint64 // FIFO eviction order
}

// get returns the basis over the servers in held, whose x-coordinates
// are xs[i] for each set bit i, building and caching it on a miss. hit
// reports whether the basis was already cached.
func (rc *recCache) get(held uint64, xs []field.Element) (b *basis, hit bool, err error) {
	rc.mu.Lock()
	if b, ok := rc.m[held]; ok {
		rc.mu.Unlock()
		return b, true, nil
	}
	rc.mu.Unlock()
	// Build outside the lock: the O(k²) computation must not serialize
	// concurrent queries. A racing builder of the same key just loses
	// and discards its copy.
	b = &basis{held: held}
	var bxs []field.Element
	for m := held; m != 0; m &= m - 1 {
		col := bits.TrailingZeros64(m)
		b.cols = append(b.cols, col)
		bxs = append(bxs, xs[col])
	}
	if b.rec, err = shamir.NewReconstructor(bxs); err != nil {
		return nil, false, err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if cached, ok := rc.m[held]; ok {
		return cached, true, nil
	}
	if rc.m == nil {
		rc.m = make(map[uint64]*basis, recCacheCap)
	}
	if len(rc.order) >= recCacheCap {
		delete(rc.m, rc.order[0])
		rc.order = rc.order[1:]
	}
	rc.m[held] = b
	rc.order = append(rc.order, held)
	return b, false, nil
}
