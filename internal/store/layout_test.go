package store_test

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
)

// layoutModel is the store contract's list order written the naive way:
// each list a set of shares, read out in one sort by impact bucket
// descending, then group, then global ID.
type layoutModel map[merging.ListID]map[posting.GlobalID]posting.EncryptedShare

func (m layoutModel) upsert(lid merging.ListID, shares []posting.EncryptedShare) int {
	added := 0
	for _, s := range shares {
		if m[lid] == nil {
			m[lid] = make(map[posting.GlobalID]posting.EncryptedShare)
		}
		if _, ok := m[lid][s.GlobalID]; !ok {
			added++
		}
		m[lid][s.GlobalID] = s
	}
	return added
}

func (m layoutModel) deleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool) {
	s, ok := m[lid][gid]
	if !ok {
		return false, false
	}
	if allow != nil && !allow(s) {
		return true, false
	}
	delete(m[lid], gid)
	if len(m[lid]) == 0 {
		delete(m, lid)
	}
	return true, true
}

func (m layoutModel) dropList(lid merging.ListID) int {
	n := len(m[lid])
	delete(m, lid)
	return n
}

// scan is the list in stored order, nil when absent.
func (m layoutModel) scan(lid merging.ListID) []posting.EncryptedShare {
	return canonical(slices.Collect(maps.Values(m[lid])))
}

// canonical sorts shares into the contract's order.
func canonical(shares []posting.EncryptedShare) []posting.EncryptedShare {
	slices.SortFunc(shares, func(a, b posting.EncryptedShare) int {
		return cmp.Or(
			cmp.Compare(posting.ImpactOf(b.GlobalID), posting.ImpactOf(a.GlobalID)),
			cmp.Compare(a.Group, b.Group),
			cmp.Compare(a.GlobalID, b.GlobalID))
	})
	return shares
}

func (m layoutModel) total() int {
	n := 0
	for _, l := range m {
		n += len(l)
	}
	return n
}

// TestLayoutMatchesModel drives random single and batched upserts (new
// and replacing), deletes (present, absent and vetoed) and list drops
// through every engine, and after each operation compares the touched
// list's stored order with layoutModel. TestEnginesMatch compares the
// engines with one another; this pins what all of them must store.
func TestLayoutMatchesModel(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		model := layoutModel{}
		r := rand.New(rand.NewSource(11))
		// A small ID space per list, so replacements and present deletes
		// are frequent; the impact tag spreads IDs over every bucket.
		randGID := func() posting.GlobalID {
			return posting.TagImpact(posting.GlobalID(r.Intn(48)), uint8(r.Intn(posting.ImpactBuckets)))
		}
		randShare := func() posting.EncryptedShare {
			return sh(randGID(), uint32(1+r.Intn(3)), uint64(r.Intn(1<<20)))
		}
		// Group 3 vetoes its own deletion.
		veto := func(s posting.EncryptedShare) bool { return s.Group != 3 }
		disk, _ := st.(*store.Disk)
		for op := 0; op < 1500; op++ {
			lid := merging.ListID(r.Intn(6))
			switch k := r.Intn(10); {
			case k < 4:
				s := randShare()
				if got, want := st.Upsert(lid, []posting.EncryptedShare{s}), model.upsert(lid, []posting.EncryptedShare{s}); got != want {
					t.Fatalf("op %d: Upsert(%d) added %d, model %d", op, lid, got, want)
				}
			case k < 6:
				batch := make([]posting.EncryptedShare, 1+r.Intn(8))
				for i := range batch {
					batch[i] = randShare()
				}
				if got, want := st.Upsert(lid, batch), model.upsert(lid, batch); got != want {
					t.Fatalf("op %d: batch Upsert(%d) added %d, model %d", op, lid, got, want)
				}
			case k < 9:
				// Mostly present IDs: pick one from the model when it can.
				gid := randGID()
				if cur := model.scan(lid); len(cur) > 0 && r.Intn(4) != 0 {
					gid = cur[r.Intn(len(cur))].GlobalID
				}
				allow := veto
				if r.Intn(2) == 0 {
					allow = nil
				}
				f, d := st.DeleteIf(lid, gid, allow)
				mf, md := model.deleteIf(lid, gid, allow)
				if f != mf || d != md {
					t.Fatalf("op %d: DeleteIf(%d, %d) = (%v,%v), model (%v,%v)", op, lid, gid, f, d, mf, md)
				}
			default:
				if got, want := st.DropList(lid), model.dropList(lid); got != want {
					t.Fatalf("op %d: DropList(%d) = %d, model %d", op, lid, got, want)
				}
			}
			if disk != nil && op%250 == 249 {
				// Replay must rebuild the same order from the log.
				if err := disk.Reopen(); err != nil {
					t.Fatalf("op %d: reopen: %v", op, err)
				}
			}
			if got, want := st.Scan(lid, nil), model.scan(lid); !slices.Equal(got, want) {
				t.Fatalf("op %d: list %d\nstore %v\nmodel %v", op, lid, got, want)
			}
			if st.TotalElements() != model.total() {
				t.Fatalf("op %d: TotalElements = %d, model %d", op, st.TotalElements(), model.total())
			}
		}
		if len(st.ListLengths()) != len(model) {
			t.Fatalf("ListLengths names %d lists, model %d", len(st.ListLengths()), len(model))
		}
		for lid := range model {
			if got := listLen(st, lid); got != len(model[lid]) {
				t.Fatalf("list %d length %d, model %d", lid, got, len(model[lid]))
			}
		}
	})
}

// history replays a random history on st that leaves exactly want, per
// list, behind: want's elements arrive in a random order with decoys
// that are later deleted, some first under another group or value and
// then replaced, and some a resharing delta short of their value, which
// a final ApplyDeltas round supplies.
func history(t *testing.T, st store.Store, want layoutModel, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	type step struct {
		lid merging.ListID
		sh  posting.EncryptedShare
	}
	var steps []step
	for lid, l := range want {
		for _, s := range l {
			steps = append(steps, step{lid, s})
		}
	}
	r.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	deltas := map[merging.ListID]map[posting.GlobalID]field.Element{}
	var decoys []step
	for _, s := range steps {
		switch r.Intn(4) {
		case 0: // first under another group and value, then replaced
			st.Upsert(s.lid, []posting.EncryptedShare{{GlobalID: s.sh.GlobalID, Group: s.sh.Group + 1, Y: field.New(uint64(r.Intn(1000)))}})
		case 1: // a delta short
			d := field.New(uint64(1 + r.Intn(1000)))
			if deltas[s.lid] == nil {
				deltas[s.lid] = map[posting.GlobalID]field.Element{}
			}
			deltas[s.lid][s.sh.GlobalID] = d
			s.sh.Y = field.Sub(s.sh.Y, d)
		}
		st.Upsert(s.lid, []posting.EncryptedShare{s.sh})
		if r.Intn(3) == 0 {
			decoy := step{s.lid, sh(posting.TagImpact(posting.GlobalID(1<<40+r.Intn(1<<20)), uint8(r.Intn(posting.ImpactBuckets))), uint32(r.Intn(4)), 1)}
			st.Upsert(decoy.lid, []posting.EncryptedShare{decoy.sh})
			decoys = append(decoys, decoy)
		}
		if len(decoys) > 0 && r.Intn(2) == 0 {
			d := decoys[0]
			decoys = decoys[1:]
			st.DeleteIf(d.lid, d.sh.GlobalID, nil)
		}
	}
	for _, d := range decoys {
		st.DeleteIf(d.lid, d.sh.GlobalID, nil)
	}
	if err := st.ApplyDeltas(deltas); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutIsHistoryIndependent: one element set reached by two random
// histories reads back identically on every engine — the one-stripe and
// the default sharded engines, and the disk engine live, replayed after
// Reopen and rewritten by Compact. A list's order is a function of its
// contents, so two servers holding the same set serve the same windows.
func TestLayoutIsHistoryIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	want := layoutModel{}
	for lid := merging.ListID(0); lid < 4; lid++ {
		n := 1 + r.Intn(300)
		var shares []posting.EncryptedShare
		for len(shares) < n {
			shares = append(shares, sh(posting.TagImpact(posting.GlobalID(r.Intn(1<<30)), uint8(r.Intn(posting.ImpactBuckets))), uint32(r.Intn(5)), uint64(r.Intn(1<<20))))
		}
		want.upsert(lid, shares)
	}
	engines := []struct {
		name string
		mk   func(t *testing.T) store.Store
	}{
		{"sharded-1", func(*testing.T) store.Store { return store.NewSharded(1) }},
		{"sharded-default", func(*testing.T) store.Store { return store.NewSharded(0) }},
		{"disk", func(t *testing.T) store.Store {
			d, err := store.OpenDisk(t.TempDir(), store.DiskOptions{SegmentBytes: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			a, b := e.mk(t), e.mk(t)
			history(t, a, want, 1)
			history(t, b, want, 2)
			check := func(when string) {
				t.Helper()
				for lid := range want {
					got, other := a.Scan(lid, nil), b.Scan(lid, nil)
					if !slices.Equal(got, want.scan(lid)) || !slices.Equal(other, got) {
						t.Fatalf("%s: list %d differs between histories or from the model", when, lid)
					}
				}
				if len(a.ListLengths()) != len(want) || len(b.ListLengths()) != len(want) {
					t.Fatalf("%s: decoy lists left behind", when)
				}
			}
			check("live")
			da, disk := a.(*store.Disk)
			if !disk {
				return
			}
			db := b.(*store.Disk)
			for _, d := range []*store.Disk{da, db} {
				if err := d.Reopen(); err != nil {
					t.Fatal(err)
				}
			}
			check("after Reopen")
			for _, d := range []*store.Disk{da, db} {
				if err := d.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			check("after Compact")
			for _, d := range []*store.Disk{da, db} {
				if err := d.Reopen(); err != nil {
					t.Fatal(err)
				}
			}
			check("after Compact and Reopen")
		})
	}
}

// TestFilteredReadsCopyWholeRuns: a filtered Scan, and a filtered
// ScanRange over windows that start and end inside runs, return exactly
// the per-element filter of the unfiltered read, on every engine, for
// callers in no group, in every group, in more than 16 groups (the
// bisecting path of GroupSet.Has) and in groups numbered 64 and up. keep
// is asked at most once per run the read covers.
func TestFilteredReadsCopyWholeRuns(t *testing.T) {
	each(t, func(t *testing.T, st store.Store) {
		r := rand.New(rand.NewSource(3))
		const lid, groups = merging.ListID(7), 80
		var shares []posting.EncryptedShare
		for i := 0; i < 600; i++ {
			shares = append(shares, sh(posting.TagImpact(posting.GlobalID(r.Intn(1<<30)), uint8(r.Intn(4))), uint32(r.Intn(groups)), uint64(i)))
		}
		st.Upsert(lid, shares)
		full := st.Scan(lid, nil)
		// runs counts the (bucket, group) runs among elements.
		runs := func(elements []posting.EncryptedShare) int {
			n := 0
			for i := range elements {
				if i == 0 || posting.ImpactOf(elements[i].GlobalID) != posting.ImpactOf(elements[i-1].GlobalID) || elements[i].Group != elements[i-1].Group {
					n++
				}
			}
			return n
		}
		sets := map[string][]auth.GroupID{"none": nil}
		for g := 0; g < groups; g++ {
			sets["all"] = append(sets["all"], auth.GroupID(g))
			if g%3 == 0 {
				sets["more than 16"] = append(sets["more than 16"], auth.GroupID(g))
			}
			if g >= 64 && g%2 == 0 {
				sets["64 and up"] = append(sets["64 and up"], auth.GroupID(g))
			}
		}
		for name, set := range sets {
			table := auth.NewGroupTable()
			for _, g := range set {
				table.Add("u", g)
			}
			memberOf := table.GroupSetOf("u")
			asked := 0
			keep := func(s posting.EncryptedShare) bool {
				asked++
				return memberOf.Has(auth.GroupID(s.Group))
			}
			filter := func(elements []posting.EncryptedShare) []posting.EncryptedShare {
				var out []posting.EncryptedShare
				for _, s := range elements {
					if memberOf.Has(auth.GroupID(s.Group)) {
						out = append(out, s)
					}
				}
				return out
			}
			if got := st.Scan(lid, keep); !slices.Equal(got, filter(full)) {
				t.Fatalf("%s: filtered Scan differs from the filtered list", name)
			}
			if asked > runs(full) {
				t.Fatalf("%s: Scan asked keep %d times for %d runs", name, asked, runs(full))
			}
			for w := 0; w < 40; w++ {
				from, n := r.Intn(len(full)), 1+r.Intn(len(full)/4)
				asked = 0
				got, total, next := st.ScanRange(lid, from, n, keep)
				end := min(from+n, len(full))
				wantNext := uint8(0)
				if end < len(full) {
					wantNext = posting.ImpactOf(full[end].GlobalID)
				}
				if !slices.Equal(got, filter(full[from:end])) || total != len(full) || next != wantNext {
					t.Fatalf("%s: ScanRange(%d, %d) = (%d shares, %d, %d), want the filtered window of %d, %d, %d",
						name, from, n, len(got), total, next, len(filter(full[from:end])), len(full), wantNext)
				}
				if asked > runs(full[from:end]) {
					t.Fatalf("%s: ScanRange(%d, %d) asked keep %d times for %d runs", name, from, n, asked, runs(full[from:end]))
				}
			}
		}
	})
}
