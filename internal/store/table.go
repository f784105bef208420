package store

import (
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// table is the unsynchronized core of each Sharded lock stripe and of
// the Disk engine: merged posting lists, each a layout whose runs carry
// its shares, never empty while in the table. Callers hold the
// appropriate lock. All of a list sits in one struct, so a call looks
// its list up once, however many shares it carries.
type table struct {
	lists map[merging.ListID]*layout
}

func newTable() table {
	return table{lists: make(map[merging.ListID]*layout)}
}

// groupsOf returns a list's groups, nil when there is no list.
func (t *table) groupsOf(lid merging.ListID) map[posting.GlobalID]uint32 {
	if l := t.lists[lid]; l != nil {
		return l.groups
	}
	return nil
}

// upsert inserts or replaces shares; returns the number newly inserted.
func (t *table) upsert(lid merging.ListID, shares []posting.EncryptedShare) int {
	if len(shares) == 0 {
		return 0
	}
	l := t.lists[lid]
	if l == nil {
		l = newLayout()
		t.lists[lid] = l
	}
	added := 0
	for _, sh := range shares {
		if l.put(sh) {
			added++
		}
	}
	return added
}

// deleteIf removes the element if allow approves it.
func (t *table) deleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool) {
	l := t.lists[lid]
	if l == nil {
		return false, false
	}
	ri, i, ok := l.find(gid)
	if !ok {
		return false, false
	}
	if allow != nil && !allow(l.runs[ri].shares[i]) {
		return true, false
	}
	if l.len() == 1 {
		delete(t.lists, lid)
		return true, true
	}
	l.removeAt(ri, i)
	return true, true
}

func (t *table) scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare {
	l := t.lists[lid]
	if l == nil {
		return nil
	}
	return l.read(0, l.len(), keep)
}

// scanRange copies positions [from, from+n) of the list (group-filtered
// by keep), and reports the unfiltered list length plus the impact bucket
// of the first element past the range — the client's upper bound on
// everything it has not fetched yet. next is 0 when the range reaches the
// end of the list.
func (t *table) scanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) (shares []posting.EncryptedShare, total int, next uint8) {
	l := t.lists[lid]
	if l == nil {
		return nil, 0, 0
	}
	total = l.len()
	from, end := window(from, n, total)
	return l.read(from, end, keep), total, l.bucketAt(end)
}

func (t *table) dropList(lid merging.ListID) int {
	n := 0
	if l := t.lists[lid]; l != nil {
		n = l.len()
	}
	delete(t.lists, lid)
	return n
}

// applyDeltas adds the deltas; every addressed element must exist
// (checkDeltas first).
func (t *table) applyDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element) {
	for lid, byID := range deltas {
		l := t.lists[lid]
		for gid, delta := range byID {
			ri, i, _ := l.find(gid)
			sh := &l.runs[ri].shares[i]
			sh.Y = field.Add(sh.Y, delta)
		}
	}
}

// lengths appends this table's list lengths into out.
func (t *table) lengths(out map[merging.ListID]int) {
	for lid, l := range t.lists {
		out[lid] = l.len()
	}
}
