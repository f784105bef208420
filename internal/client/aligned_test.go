package client_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"zerber/internal/client"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/ranking"
	"zerber/internal/shamir"
	"zerber/internal/store"
	"zerber/internal/transport"
)

// skewedStores fills one store.Sharded per server with the shares of
// random elements of every vocabulary term, each element in a random
// group and in the impact bucket of its term frequency, upserted in a
// random order per server. Each list starts out held alike by every
// server; about half of the lists are then skewed, as a mutation on its
// way to the servers or a lost store leaves them: in random (bucket,
// group) runs some servers lack elements the others hold, or hold
// elements of the run no other server has; or one server holds another
// element of a run in place of one the others hold, so its response has
// the same length and groups as theirs; or a server lacks the whole
// list. It returns what each server serves: its store's scans.
func skewedStores(tb testing.TB, e *env, k int, rng *rand.Rand) []cannedAPI {
	tb.Helper()
	xs := make([]field.Element, k)
	for i := range xs {
		xs[i] = field.Element(10 * (i + 1))
	}
	sp, err := shamir.NewSplitter(k, xs)
	if err != nil {
		tb.Fatal(err)
	}
	type run struct {
		bucket uint8
		group  uint32
	}
	stores := make([]*store.Sharded, k)
	for s := range stores {
		stores[s] = store.NewSharded(1 + rng.Intn(4))
	}
	held := make([][]posting.EncryptedShare, k) // per server, for the current list
	lists := make(map[merging.ListID][]string)
	for _, term := range terms {
		lid := e.table.ListOf(term)
		lists[lid] = append(lists[lid], term)
	}
	// In list order, so that a seed makes the same stores every run.
	for _, lid := range slices.Sorted(maps.Keys(lists)) {
		listTerms := lists[lid]
		// A fifth of the elements are extras, which no server holds
		// unless skew adds them.
		var secrets []field.Element
		var gids []posting.GlobalID
		var groups []uint32
		for _, term := range listTerms {
			for n := rng.Intn(60); n > 0; n-- {
				tf := posting.ClampTF(1 + rng.Intn(1<<uint(rng.Intn(8))))
				el := posting.Element{DocID: uint32(rng.Intn(200)), TermID: e.voc.Resolve(term), TF: tf}
				secrets = append(secrets, el.MustEncode())
				gids = append(gids, posting.TagImpact(posting.GlobalID(rng.Uint64()), posting.ImpactBucket(tf)))
				groups = append(groups, uint32(1+rng.Intn(3)))
			}
		}
		ys := make([]field.Element, k*len(secrets))
		if err := sp.SplitBatch(secrets, ys, rng); err != nil {
			tb.Fatal(err)
		}
		extra := make([]bool, len(secrets))
		for i := range extra {
			extra[i] = rng.Intn(5) == 0
		}
		runOf := func(i int) run { return run{posting.ImpactOf(gids[i]), groups[i]} }
		has := make([][]bool, k) // has[s][i]: server s holds element i
		for s := range has {
			has[s] = make([]bool, len(secrets))
			for i := range secrets {
				has[s][i] = !extra[i]
			}
		}
		switch rng.Intn(8) {
		case 0, 1, 2, 3: // held alike
		case 4, 5: // missing in, or added to, random runs on random servers
			skewed := map[run]bool{}
			for i := range secrets {
				if rng.Intn(4) == 0 {
					skewed[runOf(i)] = true
				}
			}
			for s := range has {
				for i := range secrets {
					if skewed[runOf(i)] && rng.Intn(3) == 0 {
						has[s][i] = !has[s][i]
					}
				}
			}
		case 6: // one server has one element of a run in place of another: same length, same groups
			s := rng.Intn(k)
		swap:
			for _, i := range rng.Perm(len(secrets)) {
				for _, j := range rng.Perm(len(secrets)) {
					if has[s][i] && !has[s][j] && runOf(i) == runOf(j) {
						has[s][i], has[s][j] = false, true
						break swap
					}
				}
			}
		case 7: // one server lacks the whole list
			clear(has[rng.Intn(k)])
		}
		for s := range held {
			held[s] = held[s][:0]
			for i := range secrets {
				if has[s][i] {
					held[s] = append(held[s], posting.EncryptedShare{GlobalID: gids[i], Group: groups[i], Y: ys[s*len(secrets)+i]})
				}
			}
			rng.Shuffle(len(held[s]), func(a, b int) { held[s][a], held[s][b] = held[s][b], held[s][a] })
			for len(held[s]) > 0 {
				n := 1 + rng.Intn(len(held[s]))
				stores[s].Upsert(lid, held[s][:n])
				held[s] = held[s][n:]
			}
		}
	}
	servers := make([]cannedAPI, k)
	for s := range servers {
		servers[s] = cannedAPI{x: xs[s], lists: make(map[merging.ListID][]posting.EncryptedShare)}
		for lid := range lists {
			if shares := stores[s].Scan(lid, nil); shares != nil {
				servers[s].lists[lid] = slices.Clone(shares)
				posting.PutShares(shares)
			}
		}
	}
	return servers
}

// sameSets reports whether every server holds the same (global ID,
// group) keys in list lid, in whatever order.
func sameSets(servers []cannedAPI, lid merging.ListID) bool {
	type key struct {
		gid   posting.GlobalID
		group uint32
	}
	want := map[key]bool{}
	for _, sh := range servers[0].lists[lid] {
		want[key{sh.GlobalID, sh.Group}] = true
	}
	for _, s := range servers[1:] {
		list := s.lists[lid]
		if len(list) != len(want) {
			return false
		}
		for _, sh := range list {
			if !want[key{sh.GlobalID, sh.Group}] {
				return false
			}
		}
	}
	return true
}

// TestAlignedPairingMatchesJoin is the aligned path's equivalence
// property. Over real stores whose lists random skew leaves held alike
// or not (skewedStores), a client that pairs aligned lists by position
// and one forced to join every list give identical postings, rankings
// and Stats on exact retrieval, exact search and the whole-list plan of
// top-k. A list takes the aligned path exactly when its servers hold the
// same elements: every clean list pairs, and no skewed one does.
func TestAlignedPairingMatchesJoin(t *testing.T) {
	e := newEnv(t, 3)
	const seeds = 200
	var pairedTotal, joinedTotal int
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		k := 2 + rng.Intn(3)
		servers := skewedStores(t, e, k, rng)
		apis := make([]transport.API, k)
		for i, s := range servers {
			apis[i] = s
		}
		var mu sync.Mutex
		verdicts := map[merging.ListID]bool{}
		paired, err := client.New(apis, k, e.table, e.voc)
		if err != nil {
			t.Fatal(err)
		}
		paired.RouteLists(func(lid merging.ListID, aligned bool) bool {
			mu.Lock()
			defer mu.Unlock()
			verdicts[lid] = aligned
			return true
		})
		joined, err := client.New(apis, k, e.table, e.voc)
		if err != nil {
			t.Fatal(err)
		}
		joined.RouteLists(func(merging.ListID, bool) bool { return false })

		query := slices.Clone(terms)
		rng.Shuffle(len(query), func(a, b int) { query[a], query[b] = query[b], query[a] })
		query = query[:2+rng.Intn(len(query)-1)]
		type answer struct {
			retrieved map[string][]ranking.Posting
			searched  []ranking.ScoredDoc
			topk      []ranking.ScoredDoc
			stats     [3]client.Stats
		}
		ask := func(c *client.Client) (a answer) {
			var err error
			if a.retrieved, a.stats[0], err = c.Retrieve("tok", query); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if a.searched, a.stats[1], err = c.Search("tok", query, 10); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if a.topk, a.stats[2], err = c.SearchTopK("tok", query, 10); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return a
		}
		got, want := ask(paired), ask(joined)
		if fmt.Sprint(got.retrieved, got.searched, got.topk) != fmt.Sprint(want.retrieved, want.searched, want.topk) {
			t.Fatalf("seed %d, k=%d, %v: paired %v %v %v, joined %v %v %v", seed, k, query,
				got.retrieved, got.searched, got.topk, want.retrieved, want.searched, want.topk)
		}
		if got.stats != want.stats {
			t.Fatalf("seed %d, k=%d, %v: paired stats %+v, joined %+v", seed, k, query, got.stats, want.stats)
		}
		for _, lid := range e.table.ListsOf(query) {
			alike := sameSets(servers, lid)
			if verdicts[lid] != alike {
				t.Fatalf("seed %d, k=%d: list %d aligned %v, servers hold the same elements %v", seed, k, lid, verdicts[lid], alike)
			}
			if alike {
				pairedTotal++
			} else {
				joinedTotal++
			}
		}
	}
	// Both kinds of list must have been exercised.
	if pairedTotal == 0 || joinedTotal == 0 {
		t.Fatalf("%d lists paired and %d joined: the property ran vacuously", pairedTotal, joinedTotal)
	}
	t.Logf("%d lists paired, %d joined", pairedTotal, joinedTotal)
}
