package store

import (
	"fmt"
	"slices"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// layout is one list in the Store contract's canonical order (impact
// bucket descending, then group ascending, then global ID ascending; see
// the package doc), shared by both engines. The elements sit in runs, one
// per (bucket, group) the list holds, the runs in contract order and each
// run's shares by ascending global ID. An element is found by its run,
// named by the bucket its global ID carries and the group groups records,
// and a binary search within the run; a read asks its filter once per run
// and copies each accepted run whole.
type layout struct {
	runs []run
	// keys holds each run's key, aligned with runs: a dense array, so
	// finding a run touches a few cache lines.
	keys   []runKey
	groups map[posting.GlobalID]uint32
}

// run is the shares of one (bucket, group) of a list, never empty.
type run struct {
	key    runKey
	shares []posting.EncryptedShare
}

// runKey orders runs as the contract does: bucket descending, then group
// ascending.
type runKey uint64

func keyOf(gid posting.GlobalID, group uint32) runKey {
	return runKey(posting.ImpactBuckets-1-int(posting.ImpactOf(gid)))<<32 | runKey(group)
}

func (k runKey) bucket() uint8 { return uint8(posting.ImpactBuckets - 1 - int(k>>32)) }

func (k runKey) group() uint32 { return uint32(k) }

func newLayout() *layout {
	return &layout{groups: make(map[posting.GlobalID]uint32)}
}

// len is the list's element count.
func (l *layout) len() int { return len(l.groups) }

// index is the position of gid in the run, or where it would go.
func (r *run) index(gid posting.GlobalID) int {
	lo, hi := 0, len(r.shares)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); r.shares[m].GlobalID < gid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// runIndex is the position of the run keyed k, or where it would go.
func (l *layout) runIndex(k runKey) (int, bool) {
	return slices.BinarySearch(l.keys, k)
}

// find returns the run and in-run position of gid.
func (l *layout) find(gid posting.GlobalID) (ri, i int, ok bool) {
	g, ok := l.groups[gid]
	if !ok {
		return 0, 0, false
	}
	ri, _ = l.runIndex(keyOf(gid, g))
	return ri, l.runs[ri].index(gid), true
}

// put stores sh. A present element is replaced in place, or moved to
// its new run if its group changed. It reports whether the element is
// new.
func (l *layout) put(sh posting.EncryptedShare) bool {
	gid := sh.GlobalID
	ri, i, present := l.find(gid)
	if present && l.runs[ri].key.group() == sh.Group {
		l.runs[ri].shares[i] = sh
		return false
	}
	if present {
		l.removeAt(ri, i)
	}
	k := keyOf(gid, sh.Group)
	ri, ok := l.runIndex(k)
	if !ok {
		l.runs = slices.Insert(l.runs, ri, run{key: k})
		l.keys = slices.Insert(l.keys, ri, k)
	}
	r := &l.runs[ri]
	r.shares = slices.Insert(r.shares, r.index(gid), sh)
	l.groups[gid] = sh.Group
	return !present
}

// removeAt removes the element at position i of run ri, and the run
// with it if that empties it.
func (l *layout) removeAt(ri, i int) {
	r := &l.runs[ri]
	delete(l.groups, r.shares[i].GlobalID)
	r.shares = slices.Delete(r.shares, i, i+1)
	if len(r.shares) == 0 {
		l.runs = slices.Delete(l.runs, ri, ri+1)
		l.keys = slices.Delete(l.keys, ri, ri+1)
	}
}

// span is the part [lo, hi) of run r that a read returns.
type span struct{ r, lo, hi int32 }

// spans appends to dst the parts of the runs that positions [from, end)
// cover and keep accepts (nil keeps all), in stored order, and returns
// them with their element count. keep is asked once per run, with a
// share that carries the run's group and nothing else: it decides by
// group, so a rejected run's elements are never touched.
func (l *layout) spans(dst []span, from, end int, keep func(posting.EncryptedShare) bool) ([]span, int) {
	n, pos := 0, 0
	for ri := range l.runs {
		if pos >= end {
			break
		}
		r := &l.runs[ri]
		rn := len(r.shares)
		lo, hi := max(from-pos, 0), min(end-pos, rn)
		pos += rn
		if lo >= hi {
			continue
		}
		if keep != nil && !keep(posting.EncryptedShare{Group: r.key.group()}) {
			continue
		}
		dst = append(dst, span{int32(ri), int32(lo), int32(hi)})
		n += hi - lo
	}
	return dst, n
}

// read returns the shares at positions [from, end) that keep accepts,
// nil when there are none, in a slice from posting's pool that the
// caller owns alone. The accepted runs are copied straight into it: a
// result is usually tens of kilobytes, so it is neither allocated nor
// zeroed per read.
func (l *layout) read(from, end int, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare {
	var buf [64]span
	spans, n := l.spans(buf[:0], from, end, keep)
	if n == 0 {
		return nil
	}
	out := posting.GetShares(n)[:0]
	for _, s := range spans {
		out = append(out, l.runs[s.r].shares[s.lo:s.hi]...)
	}
	return out
}

// bucketAt is the impact bucket of the element at position pos, 0 past
// the end: the next bound ScanRange reports.
func (l *layout) bucketAt(pos int) uint8 {
	for ri := range l.runs {
		n := len(l.runs[ri].shares)
		if pos < n {
			return l.runs[ri].key.bucket()
		}
		pos -= n
	}
	return 0
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
// is not in its list (groupsOf returns a list's groups, nil for an absent
// list).
func checkDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element, groupsOf func(merging.ListID) map[posting.GlobalID]uint32) (int, error) {
	n := 0
	for lid, byID := range deltas {
		groups := groupsOf(lid)
		for gid := range byID {
			if _, ok := groups[gid]; !ok {
				return 0, fmt.Errorf("reshare delta for element %d in list %d: %w", gid, lid, ErrMissing)
			}
			n++
		}
	}
	return n, nil
}
