package store

import (
	"fmt"

	"zerber/internal/merging"
	"zerber/internal/posting"
)

// CheckInvariants verifies the observable half of the Store contract on
// a quiescent store — the structural facts every engine must maintain
// for the server's policy layer and the r-confidentiality leak budget to
// stay sound:
//
//   - no phantom lists: every listed list is non-empty (an emptied list
//     must disappear from the adversary view entirely);
//   - counter consistency: TotalElements equals the sum of ListLengths,
//     and Scan and ScanRange both report each listed length;
//   - keyed addressing: no global ID appears twice within a list;
//   - canonical order: within every list, impact buckets are
//     non-increasing (the Zerber+R layout ScanRange depends on); within a
//     bucket, groups ascend, and within a group, global IDs ascend; and
//     ScanRange over the whole list agrees with Scan element-for-element.
//
// The model checker (internal/sim) runs this after every simulation
// step; it is only meaningful while no writer is concurrently mutating
// the store, since the multi-list read methods need not present one
// atomic snapshot.
func CheckInvariants(s Store) error {
	lengths := s.ListLengths()
	total := 0
	for lid, n := range lengths {
		if n <= 0 {
			return fmt.Errorf("store: list %d reported with length %d (empty lists must vanish)", lid, n)
		}
		total += n
	}
	if got := s.TotalElements(); got != total {
		return fmt.Errorf("store: TotalElements = %d, sum of list lengths = %d", got, total)
	}

	for lid, n := range lengths {
		if err := checkList(s, lid, n); err != nil {
			return err
		}
	}
	return nil
}

// checkList checks one listed list of length n: Scan's length, keyed
// addressing, canonical order and ScanRange's agreement with Scan. Both
// reads go back to posting's pool once checked.
func checkList(s Store, lid merging.ListID, n int) error {
	shares := s.Scan(lid, nil)
	defer posting.PutShares(shares)
	if len(shares) != n {
		return fmt.Errorf("store: list %d: Scan returns %d shares, length reported %d", lid, len(shares), n)
	}
	seen := make(map[posting.GlobalID]bool, len(shares))
	for _, sh := range shares {
		if seen[sh.GlobalID] {
			return fmt.Errorf("store: list %d: global ID %d stored twice", lid, sh.GlobalID)
		}
		seen[sh.GlobalID] = true
	}
	for i := 1; i < len(shares); i++ {
		a, b := shares[i-1], shares[i]
		ba, bb := posting.ImpactOf(a.GlobalID), posting.ImpactOf(b.GlobalID)
		switch {
		case bb > ba:
			return fmt.Errorf("store: list %d: impact order violated at position %d (bucket %d after %d)", lid, i, bb, ba)
		case bb == ba && b.Group < a.Group:
			return fmt.Errorf("store: list %d: group order violated at position %d (group %d after %d in bucket %d)", lid, i, b.Group, a.Group, bb)
		case bb == ba && b.Group == a.Group && b.GlobalID < a.GlobalID:
			return fmt.Errorf("store: list %d: global ID order violated at position %d (%d after %d)", lid, i, b.GlobalID, a.GlobalID)
		}
	}
	ranged, totalLen, next := s.ScanRange(lid, 0, n, nil)
	defer posting.PutShares(ranged)
	if totalLen != n || next != 0 {
		return fmt.Errorf("store: list %d: ScanRange(0, %d) reports total=%d next=%d", lid, n, totalLen, next)
	}
	if len(ranged) != len(shares) {
		return fmt.Errorf("store: list %d: ScanRange returns %d shares, Scan %d", lid, len(ranged), len(shares))
	}
	for i := range ranged {
		if ranged[i] != shares[i] {
			return fmt.Errorf("store: list %d: ScanRange/Scan disagree at position %d", lid, i)
		}
	}
	return nil
}
