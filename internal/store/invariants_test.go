package store

import (
	"slices"
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

// corruptStore wraps a healthy store holding one list and
// misreports one observable through the Store methods alone, proving the
// checker actually distinguishes healthy from broken engines.
type corruptStore struct {
	Store
	fault string
}

func (c *corruptStore) ListLengths() map[merging.ListID]int {
	out := c.Store.ListLengths()
	switch c.fault {
	case "duplicate global ID":
		out[1]++
	case "empty list":
		out[99] = 0
	}
	return out
}

func (c *corruptStore) TotalElements() int {
	n := c.Store.TotalElements()
	switch c.fault {
	case "counter drift":
		n += 3
	case "duplicate global ID":
		n++
	}
	return n
}

func (c *corruptStore) Scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare {
	out := c.Store.Scan(lid, keep)
	switch c.fault {
	case "duplicate global ID":
		out = append(out, out[0])
	case "short scan":
		out = out[:len(out)-1]
	case "impact order":
		slices.Reverse(out)
	case "group order":
		out[1], out[2] = out[2], out[1]
	case "run order":
		out[2], out[3] = out[3], out[2]
	}
	return out
}

func (c *corruptStore) ScanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) ([]posting.EncryptedShare, int, uint8) {
	out, total, next := c.Store.ScanRange(lid, from, n, keep)
	switch c.fault {
	case "range total":
		total++
	case "range short":
		out = out[:len(out)-1]
	case "range order":
		slices.Reverse(out)
	}
	return out, total, next
}

// TestCheckInvariantsRejects has one row per check, each asserting that
// check's own error text.
func TestCheckInvariantsRejects(t *testing.T) {
	for _, row := range []struct{ fault, want string }{
		{"counter drift", "TotalElements = 5, sum of list lengths = 2"},
		{"duplicate global ID", "stored twice"},
		{"empty list", "empty lists must vanish"},
		{"short scan", "Scan returns 1 shares, length reported 2"},
		{"impact order", "impact order violated"},
		// The two below corrupt the four-element list.
		{"group order", "group order violated at position 2 (group 1 after 2"},
		{"run order", "global ID order violated at position 3"},
		{"range total", "ScanRange(0, 2) reports total=3"},
		{"range short", "ScanRange returns 1 shares, Scan 2"},
		{"range order", "ScanRange/Scan disagree at position 0"},
	} {
		t.Run(row.fault, func(t *testing.T) {
			s := NewSharded(1)
			s.Upsert(1, []posting.EncryptedShare{
				{GlobalID: posting.TagImpact(10, 2), Group: 1, Y: field.New(5)},
				{GlobalID: posting.TagImpact(11, 0), Group: 1, Y: field.New(6)},
			})
			if row.fault == "group order" || row.fault == "run order" {
				// Stored as [10 | 11 (group 1) | 12 13 (group 2)]: bucket 2,
				// then bucket 0's two runs, the second of two elements.
				s.Upsert(1, []posting.EncryptedShare{
					{GlobalID: posting.TagImpact(13, 0), Group: 2, Y: field.New(8)},
					{GlobalID: posting.TagImpact(12, 0), Group: 2, Y: field.New(7)},
				})
			}
			err := CheckInvariants(&corruptStore{Store: s, fault: row.fault})
			if err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("want an error containing %q, got %v", row.want, err)
			}
		})
	}
}
