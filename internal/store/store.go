// Package store is the storage engine behind a Zerber index server: the
// keyed container of encrypted posting-list shares that package server
// wraps with authentication, group checks, and activity stats.
//
// The split follows the paper's recovery design (§5.4.1): server state
// is exactly a fold of (list, global element ID) keyed operations, so
// storage can sit behind a narrow interface and be swapped or sharded
// without touching any access-control or confidentiality logic.
//
// # Contract
//
// Every implementation must guarantee, for the r-confidentiality
// analysis (§7.1) to keep holding above it:
//
//   - Opacity. Shares are opaque payloads. The store never inspects,
//     re-encodes, or derives anything from a share's value beyond the
//     (ListID, GlobalID) key and the Group tag it stores alongside;
//     plaintext posting elements never exist at this layer.
//   - Keyed addressing only. All mutation is addressed by
//     (ListID, GlobalID). Upserting an existing key replaces the stored
//     share in place; it never duplicates the element.
//   - Score-ordered within-list layout. List reads observe shares in
//     descending impact-bucket order (posting.ImpactOf of the public
//     GlobalID, the Zerber+R §6 relevance layout): every element of
//     bucket b precedes every element of bucket b-1, so a ranged read
//     fetches the highest-scoring elements first. Within a bucket the
//     order is arrival (append) order, except that a delete moves the
//     last element of the same bucket segment into the vacated slot
//     and shifts one element per lower bucket. Order across lists
//     carries no meaning. The layout is a pure function of the per-list
//     operation history, so retrieval output is independent of how the
//     store is sharded: a list lives in exactly one shard.
//   - Ranged reads. ScanRange exposes a position window of the ordered
//     list plus the impact bucket of the first unfetched element — the
//     upper bound a top-k client needs for early termination.
//   - Per-list linearizability. Operations touching a single list are
//     atomic with respect to each other. Operations spanning lists
//     (ApplyDeltas, Keys, ListLengths, TotalElements) need not present
//     one globally consistent snapshot — but ApplyDeltas must still be
//     all-or-nothing, since a partially refreshed element would become
//     undecryptable (see Store.ApplyDeltas).
//   - Leak budget. The adversary view an implementation may expose is
//     list lengths and stored shares — exactly what a compromised
//     server box already sees (§5.2) — plus the impact bucket each
//     GlobalID publicly carries: a coarse log2 quantization of the
//     element's TF assigned by the owner peer, which is the minimum
//     order information any score-ordered confidential layout must
//     reveal (§6; the bucket granularity is the padding). No auxiliary
//     index may reveal more (e.g. insertion timestamps or per-term
//     structure).
//
// Two implementations ship: Sharded, which stripes lists across
// independently locked shards for parallel mixed workloads (see
// BenchmarkServerMixed in package server; NewSharded(1) is the one-lock
// reference the tests compare against); and Disk, the log-structured
// engine whose resident memory is O(index) rather than O(shares), for
// indexes that outgrow RAM (see disk.go).
package store

import (
	"errors"
	"fmt"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// ErrMissing reports an operation addressing an element that is not in
// the store.
var ErrMissing = errors.New("store: element not found")

// Store is the keyed share container behind an index server. All
// methods are safe for concurrent use.
type Store interface {
	// Upsert appends the shares to list lid in arrival order. A share
	// whose GlobalID is already present replaces the stored share in
	// place instead of appending. It returns how many shares were newly
	// appended (replacements are not counted). Node-to-node migration
	// ingests a list through it too.
	Upsert(lid merging.ListID, shares []posting.EncryptedShare) int

	// DeleteIf atomically looks up the element keyed by (lid, gid) and,
	// if allow approves the stored share (nil allows unconditionally),
	// swap-removes it: the list's last element moves into the vacated
	// slot. found reports presence; deleted reports removal. A list
	// emptied by the removal disappears entirely (empty lists are not
	// part of the adversary view).
	//
	// allow runs under the store's internal lock: it must be fast and
	// must not call back into the store.
	DeleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool)

	// Scan returns the shares of lid accepted by keep (nil keeps all)
	// in stored order, or nil if none match. The same locking rules as
	// DeleteIf's allow apply to keep.
	//
	// The result is the caller's to keep or overwrite: a fresh slice per
	// call that never aliases engine state or a buffer the engine
	// reuses. It is sized to what it holds (a scan that keeps half a list
	// does not allocate the other half), except that a list Disk had to
	// read for this call is that read's buffer, filtered in place.
	Scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare

	// ScanRange returns the shares at positions [from, from+n) of lid's
	// score-ordered list that keep accepts (nil keeps all), the
	// unfiltered list length, and the impact bucket of the element at
	// position from+n (0 when the window reaches the end). total and
	// next describe the whole list, before keep filtering, so a top-k
	// client can bound the score of everything it has not fetched.
	// shares is the caller's and sized like Scan's result.
	ScanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) (shares []posting.EncryptedShare, total int, next uint8)

	// DropList removes a whole list after it has been migrated away,
	// returning how many elements were dropped.
	DropList(lid merging.ListID) int

	// ApplyDeltas adds each delta to the addressed share's value — one
	// server's step of a proactive resharing round. If any addressed
	// element is missing, no share is modified and the error wraps
	// ErrMissing: a partially refreshed element would be destroyed.
	ApplyDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element) error

	// Keys enumerates the stored elements as list -> ascending global
	// IDs (the inventory proactive resharing agrees on).
	Keys() map[merging.ListID][]posting.GlobalID

	// List returns a copy of one list's shares in stored order — the
	// raw view of an adversary who has taken over the server box.
	List(lid merging.ListID) []posting.EncryptedShare

	// ListLen returns the length of one merged posting list.
	ListLen(lid merging.ListID) int

	// ListLengths returns all list lengths: the adversary's complete
	// statistical view of the index contents.
	ListLengths() map[merging.ListID]int

	// TotalElements returns the number of stored shares. Implementations
	// maintain this incrementally; it never scans the index.
	TotalElements() int

	// Sync marks a batch boundary: when it returns nil, every mutation
	// that returned before the call is as durable as the engine makes
	// anything. The server calls it once at the end of each Apply and
	// acknowledges only on nil. The in-memory engine has nothing to make
	// durable; for Disk see DiskOptions.Sync.
	Sync() error
}

// NewEngine returns the store selected by name: "" or "sharded" (the
// GOMAXPROCS-scaled lock-striped in-memory engine) or "disk" (the
// log-structured engine rooted at dir, with default DiskOptions). Only
// "disk" can fail — opening replays the segment files.
func NewEngine(engine, dir string) (Store, error) {
	switch engine {
	case "", "sharded":
		return NewSharded(0), nil
	case "disk":
		return OpenDisk(dir, DiskOptions{})
	default:
		return nil, fmt.Errorf("store: unknown engine %q (want sharded or disk)", engine)
	}
}
