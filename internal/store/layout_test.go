package store_test

import (
	"math/rand"
	"testing"

	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
)

// layoutModel is the store contract's list order written the naive way:
// one slice per impact bucket, read highest bucket first. An insert into
// bucket b appends to b and moves the first element of every non-empty
// lower bucket to that bucket's tail; a delete from bucket b moves b's
// last element into the vacated slot and the last element of every
// non-empty lower bucket to that bucket's head. A replacement keeps its
// slot.
type layoutModel map[merging.ListID]*[posting.ImpactBuckets][]posting.EncryptedShare

// find returns the bucket and index of gid in lid, or ok=false.
func (m layoutModel) find(lid merging.ListID, gid posting.GlobalID) (b uint8, i int, ok bool) {
	l := m[lid]
	if l == nil {
		return 0, 0, false
	}
	b = posting.ImpactOf(gid)
	for i, s := range l[b] {
		if s.GlobalID == gid {
			return b, i, true
		}
	}
	return 0, 0, false
}

func (m layoutModel) upsert(lid merging.ListID, shares []posting.EncryptedShare) int {
	added := 0
	for _, s := range shares {
		if b, i, ok := m.find(lid, s.GlobalID); ok {
			m[lid][b][i] = s
			continue
		}
		l := m[lid]
		if l == nil {
			l = new([posting.ImpactBuckets][]posting.EncryptedShare)
			m[lid] = l
		}
		b := posting.ImpactOf(s.GlobalID)
		for j := 0; j < int(b); j++ {
			if len(l[j]) > 0 {
				l[j] = append(l[j][1:], l[j][0])
			}
		}
		l[b] = append(l[b], s)
		added++
	}
	return added
}

func (m layoutModel) deleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool) {
	b, i, ok := m.find(lid, gid)
	if !ok {
		return false, false
	}
	l := m[lid]
	if allow != nil && !allow(l[b][i]) {
		return true, false
	}
	last := len(l[b]) - 1
	l[b][i] = l[b][last]
	l[b] = l[b][:last]
	for j := int(b) - 1; j >= 0; j-- {
		if n := len(l[j]); n > 0 {
			l[j] = append([]posting.EncryptedShare{l[j][n-1]}, l[j][:n-1]...)
		}
	}
	if m.scan(lid) == nil {
		delete(m, lid)
	}
	return true, true
}

func (m layoutModel) dropList(lid merging.ListID) int {
	n := len(m.scan(lid))
	delete(m, lid)
	return n
}

// scan is the list in stored order, nil when absent.
func (m layoutModel) scan(lid merging.ListID) []posting.EncryptedShare {
	l := m[lid]
	if l == nil {
		return nil
	}
	var out []posting.EncryptedShare
	for b := posting.ImpactBuckets - 1; b >= 0; b-- {
		out = append(out, l[b]...)
	}
	return out
}

func (m layoutModel) total() int {
	n := 0
	for lid := range m {
		n += len(m.scan(lid))
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
				// Replay must rebuild the same order from the segments.
				if err := disk.Reopen(); err != nil {
					t.Fatalf("op %d: reopen: %v", op, err)
				}
			}
			got, want := st.Scan(lid, nil), model.scan(lid)
			if len(got) != len(want) {
				t.Fatalf("op %d: list %d holds %d shares, model %d", op, lid, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d: list %d position %d = %+v, model %+v\nstore %v\nmodel %v",
						op, lid, i, got[i], want[i], got, want)
				}
			}
			if st.TotalElements() != model.total() {
				t.Fatalf("op %d: TotalElements = %d, model %d", op, st.TotalElements(), model.total())
			}
		}
		if len(st.ListLengths()) != len(model) {
			t.Fatalf("ListLengths names %d lists, model %d", len(st.ListLengths()), len(model))
		}
		for lid := range model {
			if got := listLen(st, lid); got != len(model.scan(lid)) {
				t.Fatalf("list %d length %d, model %d", lid, got, len(model.scan(lid)))
			}
		}
	})
}
