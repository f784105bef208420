package store

import (
	"strings"
	"testing"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// TestCheckInvariantsAccepts runs the checker over healthy stores of
// one and several stripes through a mutation sequence.
func TestCheckInvariantsAccepts(t *testing.T) {
	for _, eng := range []struct {
		name string
		s    Store
	}{{"memory", NewSharded(1)}, {"sharded", NewSharded(4)}} {
		t.Run(eng.name, func(t *testing.T) {
			s := eng.s
			for lid := merging.ListID(0); lid < 8; lid++ {
				shares := make([]posting.EncryptedShare, 0, 16)
				for g := 0; g < 16; g++ {
					shares = append(shares, posting.EncryptedShare{
						GlobalID: posting.GlobalID(int(lid)*100 + g), Group: 1, Y: field.New(uint64(g + 1)),
					})
				}
				s.Upsert(lid, shares)
			}
			if err := CheckInvariants(s); err != nil {
				t.Fatalf("after inserts: %v", err)
			}
			s.DeleteIf(3, 301, nil)
			for g := 0; g < 16; g++ {
				s.DeleteIf(5, posting.GlobalID(500+g), nil) // empties list 5
			}
			s.DropList(7)
			if err := CheckInvariants(s); err != nil {
				t.Fatalf("after deletes: %v", err)
			}
		})
	}
}

// corruptStore wraps a healthy store and misreports one observable, proving the
// checker actually distinguishes healthy from broken engines.
type corruptStore struct {
	Store
	extraTotal int
	dupInList  merging.ListID
}

func (c *corruptStore) TotalElements() int { return c.Store.TotalElements() + c.extraTotal }

func (c *corruptStore) List(lid merging.ListID) []posting.EncryptedShare {
	out := c.Store.List(lid)
	if lid == c.dupInList && len(out) > 0 {
		out = append(out, out[0])
	}
	return out
}

func (c *corruptStore) ListLen(lid merging.ListID) int {
	n := c.Store.ListLen(lid)
	if lid == c.dupInList && n > 0 {
		n++
	}
	return n
}

func (c *corruptStore) ListLengths() map[merging.ListID]int {
	out := c.Store.ListLengths()
	if n, ok := out[c.dupInList]; ok {
		out[c.dupInList] = n + 1
	}
	return out
}

func TestCheckInvariantsRejects(t *testing.T) {
	base := func() Store {
		s := NewSharded(1)
		s.Upsert(1, []posting.EncryptedShare{
			{GlobalID: 10, Group: 1, Y: field.New(5)},
			{GlobalID: 11, Group: 1, Y: field.New(6)},
		})
		return s
	}
	t.Run("counter drift", func(t *testing.T) {
		err := CheckInvariants(&corruptStore{Store: base(), extraTotal: 3})
		if err == nil || !strings.Contains(err.Error(), "TotalElements") {
			t.Fatalf("drifted counter not caught: %v", err)
		}
	})
	t.Run("duplicate global ID", func(t *testing.T) {
		err := CheckInvariants(&corruptStore{Store: base(), dupInList: 1, extraTotal: 1})
		if err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("duplicated ID not caught: %v", err)
		}
	})
}
