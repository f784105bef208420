package store

import (
	"fmt"
	"sort"
	"sync"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// table is the unsynchronized core of each Sharded lock stripe: merged
// posting lists, each with a position index for O(1) keyed access.
// Callers hold the appropriate lock. All of a list sits in one struct, so
// a call looks its list up once, however many shares it carries.
//
// Each list is kept bucket-major in descending impact order (the Zerber+R
// score-ordered layout): all elements whose GlobalID carries impact bucket
// b precede all elements with bucket b-1. cnt tracks the per-bucket
// segment sizes, so inserts and deletes restore the order by shifting at
// most one element per lower bucket — O(ImpactBuckets) moves, never a
// full-list shift.
type table struct {
	lists map[merging.ListID]*memList
}

// memList is one merged posting list, never empty while in the table.
type memList struct {
	shares []posting.EncryptedShare
	// pos locates an element inside shares for O(1) replace/delete.
	pos map[posting.GlobalID]int
	// cnt is the count of elements in each impact bucket.
	cnt [posting.ImpactBuckets]int
}

func newTable() table {
	return table{lists: make(map[merging.ListID]*memList)}
}

// sharesOf returns the stored shares of a list, nil when there is none.
func (t *table) sharesOf(lid merging.ListID) []posting.EncryptedShare {
	if l := t.lists[lid]; l != nil {
		return l.shares
	}
	return nil
}

// upsert appends or replaces shares; returns the number newly appended.
// New elements land at the tail of their impact-bucket segment; replaced
// elements keep their slot (same GlobalID means same bucket).
func (t *table) upsert(lid merging.ListID, shares []posting.EncryptedShare) int {
	if len(shares) == 0 {
		return 0
	}
	l := t.lists[lid]
	if l == nil {
		l = &memList{pos: make(map[posting.GlobalID]int, len(shares))}
		t.lists[lid] = l
	}
	added := 0
	for _, sh := range shares {
		if i, exists := l.pos[sh.GlobalID]; exists {
			l.shares[i] = sh
			continue
		}
		b := posting.ImpactOf(sh.GlobalID)
		list := append(l.shares, posting.EncryptedShare{})
		// Bubble the hole from the tail up to the end of bucket b's
		// segment, displacing the first element of each lower bucket to
		// the (new) tail of its own segment.
		hole := len(list) - 1
		for j := 0; j < int(b); j++ {
			if l.cnt[j] == 0 {
				continue
			}
			s := hole - l.cnt[j]
			list[hole] = list[s]
			l.pos[list[hole].GlobalID] = hole
			hole = s
		}
		list[hole] = sh
		l.pos[sh.GlobalID] = hole
		l.shares = list
		l.cnt[b]++
		added++
	}
	return added
}

// deleteIf removes the element if allow approves it, preserving the
// impact-bucket layout: swap-delete within the element's own bucket
// segment, then shift one element per lower bucket into the hole.
func (t *table) deleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool) {
	l := t.lists[lid]
	if l == nil {
		return false, false
	}
	idx, ok := l.pos[gid]
	if !ok {
		return false, false
	}
	list := l.shares
	if allow != nil && !allow(list[idx]) {
		return true, false
	}
	if len(list) == 1 {
		delete(t.lists, lid)
		return true, true
	}
	b := posting.ImpactOf(gid)
	// End of bucket b's segment: everything in buckets >= b.
	end := 0
	for j := int(b); j < posting.ImpactBuckets; j++ {
		end += l.cnt[j]
	}
	hole := end - 1
	if idx != hole {
		list[idx] = list[hole]
		l.pos[list[idx].GlobalID] = idx
	}
	for j := int(b) - 1; j >= 0; j-- {
		if l.cnt[j] == 0 {
			continue
		}
		src := hole + l.cnt[j]
		list[hole] = list[src]
		l.pos[list[hole].GlobalID] = hole
		hole = src
	}
	l.shares = list[:len(list)-1]
	l.cnt[b]--
	delete(l.pos, gid)
	return true, true
}

// scanScratch recycles the buffers filterShares filters into. One is
// private to a call from Get to Put; what a scan returns is a copy.
var scanScratch = sync.Pool{New: func() any { return new([]posting.EncryptedShare) }}

// filterShares is the one read-side filter of every engine: it returns
// the shares of src that keep accepts (nil keeps all), or nil when there
// are none. The result is the caller's and never aliases engine state or
// the scratch. When the caller owns src (a list just read from disk) it
// is src itself, filtered in place. Otherwise src is read once into a
// recycled scratch buffer and the result is a copy of exactly what was
// kept: a scan keeps half a list on average, so a result sized to
// len(src) allocated and zeroed twice what it returned, and counting
// first would read a memory-bound list twice.
func filterShares(src []posting.EncryptedShare, keep func(posting.EncryptedShare) bool, owned bool) []posting.EncryptedShare {
	if len(src) == 0 {
		return nil
	}
	if keep == nil && owned {
		return src
	} else if keep == nil {
		return append([]posting.EncryptedShare(nil), src...)
	} else if owned {
		return keepInto(src, src, keep)
	}
	scratch := scanScratch.Get().(*[]posting.EncryptedShare)
	if cap(*scratch) < len(src) {
		*scratch = make([]posting.EncryptedShare, len(src))
	}
	// append to nil sizes the copy to what was kept without zeroing it.
	out := append([]posting.EncryptedShare(nil), keepInto(*scratch, src, keep)...)
	scanScratch.Put(scratch)
	return out
}

// keepInto writes the shares of src that keep accepts to the front of
// dst, which has room for all of src (and may be src), and returns that
// prefix, nil when empty. Every share is stored and only the advance
// depends on keep: whether an element passes is a coin toss, and a
// conditional move is cheaper than a branch mispredicted half the time.
func keepInto(dst, src []posting.EncryptedShare, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare {
	dst = dst[:len(src)]
	n := 0
	for _, sh := range src {
		dst[n] = sh
		if keep(sh) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return dst[:n]
}

func (t *table) scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare {
	return filterShares(t.sharesOf(lid), keep, false)
}

// scanRange copies positions [from, from+n) of the list (group-filtered
// by keep), and reports the unfiltered list length plus the impact bucket
// of the first element past the range — the client's upper bound on
// everything it has not fetched yet. next is 0 when the range reaches the
// end of the list.
func (t *table) scanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) (shares []posting.EncryptedShare, total int, next uint8) {
	src := t.sharesOf(lid)
	total = len(src)
	if from < 0 {
		from = 0
	}
	if n < 0 {
		n = 0
	}
	end := from + n
	if end > total || end < from { // overflow-safe clamp
		end = total
	}
	if from > total {
		from = total
	}
	if end < total {
		next = posting.ImpactOf(src[end].GlobalID)
	}
	return filterShares(src[from:end], keep, false), total, next
}

func (t *table) dropList(lid merging.ListID) int {
	n := len(t.sharesOf(lid))
	delete(t.lists, lid)
	return n
}

// checkDeltas verifies every addressed element exists in this table.
func (t *table) checkDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element) error {
	for lid, byID := range deltas {
		var pos map[posting.GlobalID]int
		if l := t.lists[lid]; l != nil {
			pos = l.pos
		}
		for gid := range byID {
			if _, ok := pos[gid]; !ok {
				return fmt.Errorf("reshare delta for element %d in list %d: %w", gid, lid, ErrMissing)
			}
		}
	}
	return nil
}

// applyDeltas adds the deltas; every addressed element must exist
// (checkDeltas first).
func (t *table) applyDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element) {
	for lid, byID := range deltas {
		l := t.lists[lid]
		for gid, delta := range byID {
			sh := &l.shares[l.pos[gid]]
			sh.Y = field.Add(sh.Y, delta)
		}
	}
}

// keys appends this table's inventory (list -> ascending global IDs)
// into out.
func (t *table) keys(out map[merging.ListID][]posting.GlobalID) {
	for lid, l := range t.lists {
		ids := make([]posting.GlobalID, len(l.shares))
		for i, sh := range l.shares {
			ids[i] = sh.GlobalID
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		out[lid] = ids
	}
}

// lengths appends this table's list lengths into out.
func (t *table) lengths(out map[merging.ListID]int) {
	for lid, l := range t.lists {
		out[lid] = len(l.shares)
	}
}
