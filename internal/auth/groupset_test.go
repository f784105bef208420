package auth

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestGroupSetMatchesMapModel drives a table and a plain map of maps
// through the same random Add/Remove history and compares every answer,
// across the linear/bisect threshold of Has.
func TestGroupSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGroupTable()
	model := map[UserID]map[GroupID]bool{}
	users := []UserID{"a", "b", "c"}
	const groups = 3 * groupSetLinear
	for step := 0; step < 4000; step++ {
		u, gid := users[rng.Intn(len(users))], GroupID(rng.Intn(groups))
		if rng.Intn(3) > 0 {
			g.Add(u, gid)
			if model[u] == nil {
				model[u] = map[GroupID]bool{}
			}
			model[u][gid] = true
		} else if got, want := g.Remove(u, gid), model[u][gid]; got != want {
			t.Fatalf("step %d: Remove(%s, %d) = %v, want %v", step, u, gid, got, want)
		} else {
			delete(model[u], gid)
		}
		set := g.GroupSetOf(u)
		if ids := g.GroupsOf(u); len(ids) != len(model[u]) || !slices.IsSorted(ids) {
			t.Fatalf("step %d: GroupsOf(%s) = %v, want %d groups in order", step, u, ids, len(model[u]))
		}
		for x := GroupID(0); x < groups; x++ {
			if set.Has(x) != model[u][x] || g.IsMember(u, x) != model[u][x] {
				t.Fatalf("step %d: Has(%s, %d) = %v, want %v", step, u, x, set.Has(x), model[u][x])
			}
		}
	}
	if (GroupSet{}).Has(0) {
		t.Error("the zero set admits group 0")
	}
}

// TestGroupSetSnapshotUnderChurn is the revocation contract under the
// race detector: a set taken before Remove keeps answering as it did, a
// set taken after Remove returned never admits the removed group, and
// neither is disturbed by other goroutines adding and removing the same
// user's other groups in between.
func TestGroupSetSnapshotUnderChurn(t *testing.T) {
	const revoked = GroupID(1000)
	g := NewGroupTable()
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for w := 0; w < 4; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				gid := GroupID(w*50 + i%50) // crosses groupSetLinear both ways
				g.Add("u", gid)
				if i%3 == 0 {
					g.Remove("u", gid)
				}
			}
		}(w)
	}
	for round := 0; round < 300; round++ {
		g.Add("u", revoked)
		before := g.GroupSetOf("u")
		if !before.Has(revoked) {
			t.Fatalf("round %d: set taken after Add misses the group", round)
		}
		n := len(before.ids)
		if !g.Remove("u", revoked) {
			t.Fatalf("round %d: Remove found no membership", round)
		}
		if g.GroupSetOf("u").Has(revoked) || g.IsMember("u", revoked) {
			t.Fatalf("round %d: set taken after Remove admits the removed group", round)
		}
		if !before.Has(revoked) || len(before.ids) != n {
			t.Fatalf("round %d: Remove reached a set taken before it", round)
		}
	}
	close(stop)
	churn.Wait()
}

// TestGroupSetOfAllocatesNothing is the per-request budget: resolving
// the caller's groups and testing an element against them is free of
// allocation, whatever the set's size.
func TestGroupSetOfAllocatesNothing(t *testing.T) {
	g := NewGroupTable()
	for _, n := range []int{4, 4 * groupSetLinear} {
		for i := 0; i < n; i++ {
			g.Add("u", GroupID(2*i))
		}
		hits := 0
		allocs := testing.AllocsPerRun(100, func() {
			set := g.GroupSetOf("u")
			for x := GroupID(0); x < 16; x++ {
				if set.Has(x) {
					hits++
				}
			}
		})
		if allocs != 0 || hits == 0 {
			t.Errorf("%d groups: GroupSetOf+Has allocated %v times (%d hits), want 0", n, allocs, hits)
		}
	}
}
