package proactive

// Internal tests for the concurrent-write hazard: a writer racing a
// resharing round must never leave an element refreshed on some servers
// and stale on others. The test hooks stand in for the writer at the
// two windows a real one could hit.

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/store"
)

func concurrentCluster(t *testing.T) []*server.Server {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	servers := make([]*server.Server, 3)
	for i := range servers {
		servers[i] = server.New(server.Config{
			Name:   "rs" + string(rune('0'+i)),
			X:      field.Element(i + 1),
			Auth:   svc,
			Groups: groups,
			Store:  store.NewSharded(1),
		})
		for lid, gids := range map[merging.ListID][]posting.GlobalID{
			1: {1, 2, 3, 4, 5},
			2: {6, 7, 8},
		} {
			shares := make([]posting.EncryptedShare, len(gids))
			for j, gid := range gids {
				shares[j] = posting.EncryptedShare{
					GlobalID: gid, Group: 1,
					Y: field.Element(uint64(gid)*10 + uint64(i)),
				}
			}
			servers[i].Store().Upsert(lid, shares)
		}
	}
	return servers
}

// snapshotShares captures every server's share values.
func snapshotShares(servers []*server.Server) []map[merging.ListID][]posting.EncryptedShare {
	out := make([]map[merging.ListID][]posting.EncryptedShare, len(servers))
	for i, s := range servers {
		m := make(map[merging.ListID][]posting.EncryptedShare)
		for lid := range s.Store().Keys() {
			m[lid] = s.Store().List(lid)
		}
		out[i] = m
	}
	return out
}

// sharesEqual compares share sets per server and list, ignoring stored
// order (deletes swap-remove, reordering survivors).
func sharesEqual(a, b []map[merging.ListID][]posting.EncryptedShare) bool {
	if len(a) != len(b) {
		return false
	}
	asSet := func(shares []posting.EncryptedShare) map[posting.GlobalID]posting.EncryptedShare {
		m := make(map[posting.GlobalID]posting.EncryptedShare, len(shares))
		for _, sh := range shares {
			m[sh.GlobalID] = sh
		}
		return m
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for lid, as := range a[i] {
			bs := b[i][lid]
			if len(as) != len(bs) {
				return false
			}
			bset := asSet(bs)
			for _, sh := range as {
				if bset[sh.GlobalID] != sh {
					return false
				}
			}
		}
	}
	return true
}

// TestReshareDetectsMidGenerationMutation: an element deleted while
// deltas are being generated fails the pre-apply re-check with
// ErrConcurrentMutation before any server is touched.
func TestReshareDetectsMidGenerationMutation(t *testing.T) {
	servers := concurrentCluster(t)
	before := snapshotShares(servers)
	testHookGenerated = func() {
		for _, s := range servers {
			s.Store().DeleteIf(1, 3, nil)
		}
	}
	defer func() { testHookGenerated = nil }()

	_, err := Reshare(servers, 2, rand.New(rand.NewSource(1)))
	if !errors.Is(err, ErrConcurrentMutation) {
		t.Fatalf("want ErrConcurrentMutation, got %v", err)
	}
	// The deleted element aside, every share must be untouched.
	for _, snap := range before {
		gone := false
		for j, sh := range snap[1] {
			if sh.GlobalID == 3 {
				snap[1] = append(snap[1][:j], snap[1][j+1:]...)
				gone = true
				break
			}
		}
		if !gone {
			t.Fatal("snapshot missing the deleted element")
		}
	}
	if !sharesEqual(before, snapshotShares(servers)) {
		t.Fatal("a failed round modified shares")
	}
}

// TestReshareRollsBackMidApplyFailure: a delete that lands between one
// server's apply and the next must roll the round back — the
// already-refreshed server returns to its pre-round shares, so no
// element is left refreshed asymmetrically (which would make it
// unreconstructable).
func TestReshareRollsBackMidApplyFailure(t *testing.T) {
	servers := concurrentCluster(t)
	before := snapshotShares(servers)
	testHookApplied = func(i int) {
		if i == 0 {
			// The delete stage lands on the servers that have not yet
			// applied their refresh deltas.
			for _, s := range servers[1:] {
				s.Store().DeleteIf(2, 7, nil)
			}
		}
	}
	defer func() { testHookApplied = nil }()

	_, err := Reshare(servers, 2, rand.New(rand.NewSource(2)))
	if !errors.Is(err, ErrConcurrentMutation) {
		t.Fatalf("want ErrConcurrentMutation, got %v", err)
	}
	after := snapshotShares(servers)
	// Server 0 must have been rolled back exactly; servers 1 and 2 are
	// untouched apart from the concurrent delete itself.
	for i := 1; i < 3; i++ {
		for j, sh := range before[i][2] {
			if sh.GlobalID == 7 {
				before[i][2] = append(before[i][2][:j], before[i][2][j+1:]...)
				break
			}
		}
	}
	if !sharesEqual(before, after) {
		t.Fatal("mid-apply failure left shares refreshed asymmetrically")
	}
}

// TestReshareCleanRoundStillRefreshes guards the hooks' plumbing: with
// no concurrent writer the round succeeds and changes every share.
func TestReshareCleanRoundStillRefreshes(t *testing.T) {
	servers := concurrentCluster(t)
	before := snapshotShares(servers)
	n, err := Reshare(servers, 2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("refreshed %d elements, want 8", n)
	}
	if sharesEqual(before, snapshotShares(servers)) {
		t.Fatal("round reported success but shares are unchanged")
	}
}
