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
//     share; it never duplicates the element.
//   - Canonical within-list order. List reads observe shares sorted by
//     impact bucket descending (posting.ImpactOf of the public GlobalID,
//     the Zerber+R §6 relevance layout), then by group ascending, then
//     by global ID ascending. Every element of bucket b precedes every
//     element of bucket b-1, so a ranged read fetches the
//     highest-scoring elements first; within a bucket each group's
//     elements form one run, so a read filtered to the caller's groups
//     (§5.4.2) copies whole runs. The order is a function of a list's
//     contents alone, not of the operations that produced them: two
//     stores holding the same elements hold them in the same order,
//     whatever the engine, sharding, arrival order, restarts or
//     compactions, so a position window names the same elements on
//     each. Order across lists carries no meaning. The client relies on
//     it: k responses of one list that hold the same elements at the
//     same positions are decrypted by position, without a join by
//     global ID, and the streamed top-k plan pages by position windows
//     (package client). A store that broke the order would cost its
//     clients that fast path, not their answers: any other response
//     goes through the join.
//   - Ranged reads. ScanRange exposes a position window of the ordered
//     list plus the impact bucket of the first unfetched element — the
//     upper bound a top-k client needs for early termination.
//   - Per-list linearizability. Operations touching a single list are
//     atomic with respect to each other. Operations spanning lists
//     (ApplyDeltas, ListLengths, TotalElements) need not present one
//     globally consistent snapshot — but ApplyDeltas must still be
//     all-or-nothing, since a partially refreshed element would become
//     undecryptable (see Store.ApplyDeltas).
//   - Leak budget. The adversary view an implementation may expose is
//     list lengths and stored shares, ListLengths plus Scan(lid, nil) —
//     exactly what a compromised server box already sees (§5.2) — plus
//     the impact bucket each GlobalID publicly carries: a coarse log2
//     quantization of the
//     element's TF assigned by the owner peer, which is the minimum
//     order information any score-ordered confidential layout must
//     reveal (§6; the bucket granularity is the padding). No auxiliary
//     index may reveal more (e.g. insertion timestamps or per-term
//     structure). The canonical order stays inside this budget: it is
//     computed from the bucket, the group tag and the global ID alone,
//     and the view already holds all three — the bucket as above, the
//     group stored in the clear beside each share, and the global ID,
//     which the owner draws at random. Sorting by them reveals nothing
//     the view does not, and strictly less than an arrival order would:
//     that is a function of insertion history, which the budget
//     forbids.
//   - Filters decide by group. The keep filter of Scan and ScanRange
//     must decide by the share's Group alone (the server's group check
//     does): an engine asks it once per run of one bucket and group,
//     with a share that carries only the run's group, and copies or
//     skips the run whole.
//
// Two engines ship: Sharded, which stripes lists across independently
// locked shards for parallel mixed workloads (see BenchmarkServerMixed
// in package server; NewSharded(1) is the one-lock reference the tests
// compare against); and Disk, the log-structured engine whose heap is
// O(index) rather than O(shares), for indexes that outgrow RAM: it
// reads shares from segment files mapped into memory, whose pages are
// the kernel's reclaimable page cache (see disk.go). A third
// implementation composes them: dht.Slot partitions lists over several
// engines by consistent hashing and routes each call to the one
// authoritative for its list; the contract tests run it beside the
// engines.
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
//
// It has one read path (Scan, ScanRange), one inventory (ListLengths)
// and one counter (TotalElements). Three methods stay although other
// calls could stand in for them:
//   - TotalElements is the sum of ListLengths, but the benchmark's layer
//     metrics ask a Store for it, and on Sharded it takes no lock.
//   - DropList and ApplyDeltas are the only all-at-once forms of what
//     they do; on Disk each is one segment frame.
//
// The inventory is list lengths, not sorted global IDs: dht reads it
// under its exclusive routing lock on every join and leave, where
// O(lists) is the price and copying and sorting every ID would stall
// every serving call. A caller that needs the IDs reads the lists.
type Store interface {
	// Upsert inserts the shares into list lid one after another, each
	// where the package doc's canonical order puts it. A share whose
	// GlobalID is already present replaces the stored share instead (in
	// place, unless its group changed, which moves it to its group's
	// run); a batch naming one GlobalID twice keeps the later share. It returns how many shares were newly inserted
	// (replacements are not counted). Node-to-node migration ingests a
	// list through it too.
	Upsert(lid merging.ListID, shares []posting.EncryptedShare) int

	// DeleteIf atomically looks up the element keyed by (lid, gid) and,
	// if allow approves the stored share (nil allows unconditionally),
	// removes it; the elements after it move up one position.
	// found reports presence; deleted reports removal. A list
	// emptied by the removal disappears entirely (empty lists are not
	// part of the adversary view).
	//
	// allow runs under the store's internal lock: it must be fast and
	// must not call back into the store.
	DeleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool)

	// Scan returns the shares of lid accepted by keep (nil keeps all)
	// in stored order, or nil if none match. keep decides by group (see
	// the package doc), and the same locking rules as DeleteIf's allow
	// apply to it.
	//
	// The result is the caller's alone, to keep or overwrite: a slice
	// per call from posting's pool (GetShares) that never aliases engine
	// state, another call's result or a buffer the engine reuses, so the
	// caller may hand it to posting.PutShares once it is done with it. It
	// holds only what the scan kept: a scan that keeps half a list does
	// not copy, or on Disk read, the other half.
	Scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare

	// ScanRange returns the shares at positions [from, from+n) of lid's
	// ordered list that keep accepts (nil keeps all, and it decides by
	// group as Scan's does), the
	// unfiltered list length, and the impact bucket of the element at
	// position from+n (0 when the window reaches the end). total and
	// next describe the whole list, before keep filtering, so a top-k
	// client can bound the score of everything it has not fetched.
	// shares is the caller's alone, like Scan's result.
	ScanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) (shares []posting.EncryptedShare, total int, next uint8)

	// DropList removes a whole list after it has been migrated away,
	// returning how many elements were dropped.
	DropList(lid merging.ListID) int

	// ApplyDeltas adds each delta to the addressed share's value — one
	// server's step of a proactive resharing round. If any addressed
	// element is missing, no share is modified and the error wraps
	// ErrMissing: a partially refreshed element would be destroyed.
	ApplyDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element) error

	// ListLengths returns all list lengths: the adversary's complete
	// statistical view of the index contents. An emptied or dropped list
	// is absent. One list's length alone is the total of
	// ScanRange(lid, 0, 0, nil), which copies nothing.
	ListLengths() map[merging.ListID]int

	// TotalElements returns the number of stored shares. It never scans
	// shares: the engines maintain it incrementally, and dht.Slot sums
	// its authoritative lists' lengths.
	TotalElements() int

	// Sync marks a batch boundary: when it returns nil, every mutation
	// that returned before the call is as durable as the engine makes
	// anything. The server calls it once at the end of each Apply and
	// acknowledges only on nil. The in-memory engine has nothing to make
	// durable; for Disk see DiskOptions.Sync.
	Sync() error
}

// NegateDeltas returns deltas with every element negated: applying it
// undoes an ApplyDeltas of deltas, which is how a resharing round rolls
// back a store that already took its part.
func NegateDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element) map[merging.ListID]map[posting.GlobalID]field.Element {
	out := make(map[merging.ListID]map[posting.GlobalID]field.Element, len(deltas))
	for lid, m := range deltas {
		nm := make(map[posting.GlobalID]field.Element, len(m))
		for gid, d := range m {
			nm[gid] = field.Neg(d)
		}
		out[lid] = nm
	}
	return out
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
