package posting

import (
	"testing"

	"zerber/internal/field"
)

// TestGetSharesSizes: a slice of every requested length, with room up
// to its size class, and the zero length empty but not nil.
func TestGetSharesSizes(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 1000, 1 << 12, 1<<shareClassMaxBits + 1} {
		s := GetShares(n)
		if len(s) != n || cap(s) < n || s == nil {
			t.Errorf("GetShares(%d): len %d cap %d nil %v", n, len(s), cap(s), s == nil)
		}
		PutShares(s)
	}
	PutShares(nil)
}

// TestSharePoolRecycles: a released slice comes back for a request of
// its class, and giving one back allocates nothing, so a read path
// whose owners release pays for no share slice in steady state.
func TestSharePoolRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what is put under the race detector")
	}
	if allocs := testing.AllocsPerRun(100, func() { PutShares(GetShares(1000)) }); allocs != 0 {
		t.Errorf("a warm GetShares/PutShares of 1,000 shares: %v allocations, want 0", allocs)
	}
	// A slice the caller sliced down or made itself is filed by its
	// capacity and serves a request of that class.
	own := make([]EncryptedShare, 100, 300)
	PutShares(own[:7])
	if got := GetShares(200); cap(got) < 200 {
		t.Errorf("GetShares(200) after releasing a 300-capacity slice: cap %d", cap(got))
	}
}

// TestReleasedSharesPoisonedUnderRace: in a race build PutShares fills
// the whole capacity of what it is given with a share no server holds,
// whether or not the pool keeps the slice, so a reader that still holds
// a released slice reads poison: a global ID repeated in every cell,
// which fails a join as a redelivery, and a Y above the field modulus.
func TestReleasedSharesPoisonedUnderRace(t *testing.T) {
	if !raceEnabled {
		t.Skip("poisoning is for race builds: go test -race")
	}
	if _, err := field.Check(uint64(poisonShare.Y)); err == nil {
		t.Fatalf("poison Y %#x is a field element", uint64(poisonShare.Y))
	}
	for _, n := range []int{1, 40, 1000, 1<<shareClassMaxBits + 1} {
		s := GetShares(n)
		for i := range s {
			s[i] = EncryptedShare{GlobalID: GlobalID(i + 1), Group: 1, Y: field.Element(i)}
		}
		stale := s[:cap(s)]
		PutShares(s[:n/2])
		for i, sh := range stale {
			if sh != poisonShare {
				t.Fatalf("%d shares released: cell %d of %d reads %+v, want poison", n, i, len(stale), sh)
			}
		}
	}
}
