package proactive

import (
	"fmt"
	"testing"

	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
)

// vanishingStore lists one list more than it holds: a list deleted
// between the inventory's length read and its ID read.
type vanishingStore struct{ store.Store }

func (v vanishingStore) ListLengths() map[merging.ListID]int {
	out := v.Store.ListLengths()
	out[99] = 4
	return out
}

// TestInventorySortedIDs: the inventory lists each stored list's global
// IDs in ascending order, not the stored (impact-bucket) order, and
// skips a list that vanished between its two reads.
func TestInventorySortedIDs(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tagged := func(id posting.GlobalID, b uint8) posting.EncryptedShare {
		return posting.EncryptedShare{GlobalID: posting.TagImpact(id, b), Group: 1}
	}
	d.Upsert(1, []posting.EncryptedShare{tagged(1, 3), tagged(2, 0), tagged(3, 5)})
	d.Upsert(2, []posting.EncryptedShare{tagged(4, 1)})
	if err := d.Reopen(); err != nil { // read what replay rebuilt
		t.Fatal(err)
	}

	got := inventory(vanishingStore{d})
	want := map[merging.ListID][]posting.GlobalID{
		1: {posting.TagImpact(2, 0), posting.TagImpact(1, 3), posting.TagImpact(3, 5)},
		2: {posting.TagImpact(4, 1)},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("inventory = %v, want %v", got, want)
	}
}
