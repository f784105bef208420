package store

import (
	"sync"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// table is the unsynchronized core of each Sharded lock stripe: merged
// posting lists, each ordered by its layout. Callers hold the
// appropriate lock. All of a list sits in one struct, so a call looks its
// list up once, however many shares it carries.
type table struct {
	lists map[merging.ListID]*memList
}

// memList is one merged posting list, never empty while in the table:
// its shares in the order its layout keeps.
type memList struct {
	shares []posting.EncryptedShare
	layout
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

// positions returns a list's position map, nil when there is none.
func (t *table) positions(lid merging.ListID) map[posting.GlobalID]int {
	if l := t.lists[lid]; l != nil {
		return l.pos
	}
	return nil
}

// upsert inserts or replaces shares; returns the number newly inserted.
// A replaced element keeps its slot (same GlobalID means same bucket).
func (t *table) upsert(lid merging.ListID, shares []posting.EncryptedShare) int {
	if len(shares) == 0 {
		return 0
	}
	l := t.lists[lid]
	if l == nil {
		l = &memList{layout: newLayout(len(shares))}
		t.lists[lid] = l
	}
	added := 0
	for _, sh := range shares {
		if i, exists := l.pos[sh.GlobalID]; exists {
			l.shares[i] = sh
			continue
		}
		l.shares = append(l.shares, posting.EncryptedShare{})
		l.shares[l.insert(l.shares, nil, sh.GlobalID)] = sh
		added++
	}
	return added
}

// deleteIf removes the element if allow approves it.
func (t *table) deleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool) {
	l := t.lists[lid]
	if l == nil {
		return false, false
	}
	idx, ok := l.pos[gid]
	if !ok {
		return false, false
	}
	if allow != nil && !allow(l.shares[idx]) {
		return true, false
	}
	if len(l.shares) == 1 {
		delete(t.lists, lid)
		return true, true
	}
	l.remove(l.shares, nil, gid, idx)
	l.shares = l.shares[:len(l.shares)-1]
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
	from, end := window(from, n, total)
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

// lengths appends this table's list lengths into out.
func (t *table) lengths(out map[merging.ListID]int) {
	for lid, l := range t.lists {
		out[lid] = len(l.shares)
	}
}
