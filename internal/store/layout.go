package store

import (
	"fmt"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// layout is one list's order under the Store contract (bucket-major,
// highest impact bucket first; see the package doc), shared by both
// engines: a position map for O(1) keyed access and each bucket's element
// count, so an insert or a remove restores the order with at most one
// move per lower bucket, never a full-list shift.
//
// It orders rows it does not hold, passed as the two per-element slices
// an engine may keep in stored order: shares (Sharded's rows; Disk's
// resident payloads) and entries (Disk's segment locations). A nil slice
// is one the engine does not keep: Sharded has no entries, and a Disk
// list whose payloads are not resident has no shares.
type layout struct {
	pos map[posting.GlobalID]int
	cnt [posting.ImpactBuckets]int
}

func newLayout(n int) layout {
	return layout{pos: make(map[posting.GlobalID]int, n)}
}

// move copies row src over row dst and records the moved element's new
// position.
func (l *layout) move(shares []posting.EncryptedShare, entries []diskEntry, dst, src int) {
	var gid posting.GlobalID
	if entries != nil {
		entries[dst] = entries[src]
		gid = entries[dst].gid
	}
	if shares != nil {
		shares[dst] = shares[src]
		gid = shares[dst].GlobalID
	}
	l.pos[gid] = dst
}

// insert places gid, which must be absent, at the tail of its bucket.
// The caller has appended one unset row to each slice; insert bubbles
// that hole up to the end of the bucket, moving the first element of
// each non-empty lower bucket to its own bucket's tail, and returns the
// position where the caller writes the new element's row.
func (l *layout) insert(shares []posting.EncryptedShare, entries []diskEntry, gid posting.GlobalID) int {
	b := posting.ImpactOf(gid)
	hole := len(l.pos)
	for j := 0; j < int(b); j++ {
		if l.cnt[j] == 0 {
			continue
		}
		s := hole - l.cnt[j]
		l.move(shares, entries, hole, s)
		hole = s
	}
	l.pos[gid] = hole
	l.cnt[b]++
	return hole
}

// remove takes gid, stored at position idx, out of the order: the last
// element of gid's bucket moves into its slot, and the last element of
// each non-empty lower bucket moves to its own bucket's head. The row
// left unused is the last of each slice, which the caller truncates.
func (l *layout) remove(shares []posting.EncryptedShare, entries []diskEntry, gid posting.GlobalID, idx int) {
	b := posting.ImpactOf(gid)
	hole := -1 // the last position of bucket b
	for j := int(b); j < posting.ImpactBuckets; j++ {
		hole += l.cnt[j]
	}
	if idx != hole {
		l.move(shares, entries, idx, hole)
	}
	for j := int(b) - 1; j >= 0; j-- {
		if l.cnt[j] == 0 {
			continue
		}
		src := hole + l.cnt[j]
		l.move(shares, entries, hole, src)
		hole = src
	}
	l.cnt[b]--
	delete(l.pos, gid)
}

// window clamps the position window [from, from+n) of ScanRange to a
// list of total elements, overflow-safe.
func window(from, n, total int) (int, int) {
	from = min(max(from, 0), total)
	end := from + max(n, 0)
	if end > total || end < from {
		end = total
	}
	return from, end
}

// checkDeltas is the presence check of ApplyDeltas: it returns how many
// elements deltas addresses, or an error wrapping ErrMissing for one that
// positions (a list's position map, nil for an absent list) lacks.
func checkDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element, positions func(merging.ListID) map[posting.GlobalID]int) (int, error) {
	n := 0
	for lid, byID := range deltas {
		pos := positions(lid)
		for gid := range byID {
			if _, ok := pos[gid]; !ok {
				return 0, fmt.Errorf("reshare delta for element %d in list %d: %w", gid, lid, ErrMissing)
			}
			n++
		}
	}
	return n, nil
}
