package store

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// Sharded stripes the merged posting lists over independently locked
// shards keyed by hash(ListID), so inserts, deletes, and scans touching
// different lists proceed in parallel instead of serializing behind one
// global mutex. A list lives entirely in one shard, which preserves the
// within-list ordering contract regardless of the shard count.
type Sharded struct {
	shards []shard
	// bits is log2(len(shards)); the shard index is the top bits of a
	// Fibonacci hash of the list ID.
	bits uint
}

// shard is one lock stripe. elems is atomic so TotalElements sums the
// stripes without taking any lock.
type shard struct {
	mu    sync.RWMutex
	tab   table
	elems atomic.Int64
	// Pad each stripe to 128 bytes — a whole spatial-prefetcher pair of
	// cache lines — so neighbouring stripes' hot mutex and counter words
	// don't false-share under write-heavy load. The payload above is 40
	// bytes (24 mutex + 8 table + 8 counter).
	_ [128 - 40]byte
}

var _ Store = (*Sharded)(nil)

// maxShards bounds the auto-scaled shard count; past a few hundred
// stripes the per-shard maps dominate memory without reducing contention.
const maxShards = 512

// DefaultShards returns the GOMAXPROCS-scaled shard count used when the
// caller does not fix one: the next power of two above 2*GOMAXPROCS,
// capped at maxShards.
func DefaultShards() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	p := 1 << bits.Len(uint(n-1)) // next power of two >= n
	if p > maxShards {
		p = maxShards
	}
	return p
}

// NewSharded returns an empty store with n lock stripes, rounded up to a
// power of two; n <= 0 selects DefaultShards().
func NewSharded(n int) *Sharded {
	if n <= 0 {
		n = DefaultShards()
	}
	if n > maxShards {
		n = maxShards
	}
	n = 1 << bits.Len(uint(n-1))
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]shard, n), bits: uint(bits.TrailingZeros(uint(n)))}
	for i := range s.shards {
		s.shards[i].tab = newTable()
	}
	return s
}

// NumShards returns the number of lock stripes.
func (s *Sharded) NumShards() int { return len(s.shards) }

func (s *Sharded) shardIndex(lid merging.ListID) int {
	if s.bits == 0 {
		return 0
	}
	// Fibonacci hashing: multiply by 2^64/phi and keep the top bits.
	return int((uint64(lid) * 0x9E3779B97F4A7C15) >> (64 - s.bits))
}

func (s *Sharded) shardOf(lid merging.ListID) *shard {
	return &s.shards[s.shardIndex(lid)]
}

// Upsert implements Store.
func (s *Sharded) Upsert(lid merging.ListID, shares []posting.EncryptedShare) int {
	sh := s.shardOf(lid)
	sh.mu.Lock()
	added := sh.tab.upsert(lid, shares)
	if added != 0 {
		sh.elems.Add(int64(added))
	}
	sh.mu.Unlock()
	return added
}

// DeleteIf implements Store.
func (s *Sharded) DeleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool) {
	sh := s.shardOf(lid)
	sh.mu.Lock()
	found, deleted = sh.tab.deleteIf(lid, gid, allow)
	if deleted {
		sh.elems.Add(-1)
	}
	sh.mu.Unlock()
	return found, deleted
}

// Scan implements Store.
func (s *Sharded) Scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare {
	sh := s.shardOf(lid)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tab.scan(lid, keep)
}

// ScanRange implements Store.
func (s *Sharded) ScanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) ([]posting.EncryptedShare, int, uint8) {
	sh := s.shardOf(lid)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tab.scanRange(lid, from, n, keep)
}

// DropList implements Store.
func (s *Sharded) DropList(lid merging.ListID) int {
	sh := s.shardOf(lid)
	sh.mu.Lock()
	n := sh.tab.dropList(lid)
	if n != 0 {
		sh.elems.Add(int64(-n))
	}
	sh.mu.Unlock()
	return n
}

// ApplyDeltas implements Store. The deltas are bucketed per shard
// outside any lock; the affected shards are then locked together (in
// index order, so concurrent rounds cannot deadlock), validated, and
// only then mutated: all-or-nothing across shards.
func (s *Sharded) ApplyDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element) error {
	buckets := make(map[int]map[merging.ListID]map[posting.GlobalID]field.Element)
	for lid, byID := range deltas {
		i := s.shardIndex(lid)
		if buckets[i] == nil {
			buckets[i] = make(map[merging.ListID]map[posting.GlobalID]field.Element)
		}
		buckets[i][lid] = byID
	}
	idxs := make([]int, 0, len(buckets))
	for i := range buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for _, i := range idxs {
			s.shards[i].mu.Unlock()
		}
	}()
	for _, i := range idxs {
		if _, err := checkDeltas(buckets[i], s.shards[i].tab.groupsOf); err != nil {
			return err
		}
	}
	for _, i := range idxs {
		s.shards[i].tab.applyDeltas(buckets[i])
	}
	return nil
}

// ListLengths implements Store.
func (s *Sharded) ListLengths() map[merging.ListID]int {
	out := make(map[merging.ListID]int)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sh.tab.lengths(out)
		sh.mu.RUnlock()
	}
	return out
}

// Sync implements Store; memory has nothing to make durable.
func (s *Sharded) Sync() error { return nil }

// TotalElements implements Store. Lock-free: it sums the per-shard
// atomic counters.
func (s *Sharded) TotalElements() int {
	var n int64
	for i := range s.shards {
		n += s.shards[i].elems.Load()
	}
	return int(n)
}
