package client_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/shamir"
	"zerber/internal/transport"
)

// cannedAPI is a server that answers every lookup with the same
// prepared lists, whole or one window at a time, so a test or
// benchmark drives the client's join → decrypt → filter → rank pipeline
// with no store, codec or network behind it. Like a real server it
// answers each call with copies the caller owns alone, drawn from
// posting's pool as a store's are, so the client's release of them is
// what a budget measures.
type cannedAPI struct {
	x     field.Element
	lists map[merging.ListID][]posting.EncryptedShare
}

func (a cannedAPI) XCoord() field.Element { return a.x }
func (a cannedAPI) Apply(context.Context, auth.Token, transport.OpID, []transport.InsertOp, []transport.DeleteOp) error {
	return errors.New("read-only fake")
}
func (a cannedAPI) GetPostingLists(context.Context, auth.Token, []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	out := make(map[merging.ListID][]posting.EncryptedShare, len(a.lists))
	for lid, list := range a.lists {
		out[lid] = pooledCopy(list)
	}
	return out, nil
}
func (a cannedAPI) GetPostingBlocks(_ context.Context, _ auth.Token, lid merging.ListID, from, n int) (transport.BlockPage, error) {
	list := a.lists[lid]
	from = min(from, len(list))
	end := min(from+n, len(list))
	page := transport.BlockPage{Shares: pooledCopy(list[from:end]), Total: len(list)}
	if end < len(list) {
		page.Next = posting.ImpactOf(list[end].GlobalID)
	}
	return page, nil
}

// pooledCopy copies shares into a slice from posting's pool.
func pooledCopy(shares []posting.EncryptedShare) []posting.EncryptedShare {
	out := posting.GetShares(len(shares))
	copy(out, shares)
	return out
}

// syntheticQuery is three of the test vocabulary's terms that the M=4
// table keeps in three different lists.
var syntheticQuery = []string{"martha", "imclone", "layoff"}

// syntheticCluster builds a two-server, k=2 client whose servers return
// elements posting elements spread over the three lists of
// syntheticQuery. Half of every list belongs to a merged-in neighbor
// term (false positives), term frequencies follow the benchmark's power
// law, and each server holds its lists bucket-major with every impact
// bucket shuffled independently — the layout a store produces when peers
// reach the servers in different orders. It returns the servers too.
func syntheticCluster(tb testing.TB, elements int) (*client.Client, []cannedAPI) {
	tb.Helper()
	e := newEnv(tb, 4)
	xs := []field.Element{10, 20}
	sp, err := shamir.NewSplitter(2, xs)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(elements)))
	servers := []cannedAPI{
		{x: xs[0], lists: make(map[merging.ListID][]posting.EncryptedShare)},
		{x: xs[1], lists: make(map[merging.ListID][]posting.EncryptedShare)},
	}
	neighbor := e.voc.Resolve("no-such-term")
	for _, term := range syntheticQuery {
		lid := e.table.ListOf(term)
		if servers[0].lists[lid] != nil {
			tb.Fatalf("term %q shares list %d with another query term", term, lid)
		}
		n := elements / len(syntheticQuery)
		secrets := make([]field.Element, n)
		gids := make([]posting.GlobalID, n)
		for i := range secrets {
			tf := posting.ClampTF(min(1023, int(1/(1-rng.Float64()))))
			el := posting.Element{DocID: uint32(i), TermID: e.voc.Resolve(term), TF: tf}
			if i%2 == 1 {
				el.TermID = neighbor
			}
			secrets[i] = el.MustEncode()
			gids[i] = posting.TagImpact(posting.GlobalID(rng.Uint64()), posting.ImpactBucket(tf))
		}
		ys := make([]field.Element, len(xs)*n)
		if err := sp.SplitBatch(secrets, ys, rng); err != nil {
			tb.Fatal(err)
		}
		for s := range servers {
			shares := make([]posting.EncryptedShare, n)
			for i := range shares {
				shares[i] = posting.EncryptedShare{GlobalID: gids[i], Group: 1, Y: ys[s*n+i]}
			}
			rng.Shuffle(n, func(a, b int) { shares[a], shares[b] = shares[b], shares[a] })
			sort.SliceStable(shares, func(a, b int) bool {
				return posting.ImpactOf(shares[a].GlobalID) > posting.ImpactOf(shares[b].GlobalID)
			})
			servers[s].lists[lid] = shares
		}
	}
	c, err := client.New([]transport.API{servers[0], servers[1]}, 2, e.table, e.voc)
	if err != nil {
		tb.Fatal(err)
	}
	return c, servers
}

// warmCost is what one warm search costs the allocator: the mean
// allocation count and bytes of 20 runs after a first that fills the
// client's basis cache and its pools of query memory. Like
// testing.AllocsPerRun it runs on one processor, so the counts are not at
// the mercy of which of the fan-out's goroutines the scheduler runs
// first; the collector is held off for the runs, because a collection
// empties the pools and the next search refills them.
func warmCost(search func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	search()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		search()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / runs), float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// poolsRecycle reports whether a sync.Pool hands back what was put in
// it; under the race detector it drops a quarter at random.
func poolsRecycle() bool {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != x {
			return false
		}
	}
	return true
}

// allocationBudget runs one plan's budget on the synthetic cluster at
// 3,500 and at 35,000 elements. A warm search may make at most
// maxAllocs allocations of at most maxBytes in all at either size, and
// the larger size may add fewer than one allocation per 256 more
// elements: slices that outgrow a size class, never per-element objects.
// The byte budget is what keeps the join, decrypt and rank memory
// recycled: one search of 35,000 elements that allocated its join
// columns afresh would take a megabyte. Under the race detector a pool
// drops a quarter of what is put back, so there only the counts are
// held, to a budget with room for the client's refills. The fake
// servers' share copies are refilled there too, whenever the pool
// dropped their last release; fake replays one search's worth of the
// servers' calls and releases (nil for none), and what it costs in the
// same run is added to the race budget, so the client's own path is
// held to maxAllocsRace alone.
func allocationBudget(t *testing.T, plan string, maxAllocs, maxAllocsRace, maxBytes float64, search func(c *client.Client, elements int), fake func(servers []cannedAPI)) {
	const small, large = 3500, 35000
	recycle := poolsRecycle()
	var allocs, bytes, fakeAllocs [2]float64
	for i, elements := range []int{small, large} {
		c, servers := syntheticCluster(t, elements)
		allocs[i], bytes[i] = warmCost(func() { search(c, elements) })
		if fake != nil {
			fakeAllocs[i], _ = warmCost(func() { fake(servers) })
		}
	}
	t.Logf("%s: per warm search %.0f allocations, %.0f B at %d elements; %.0f, %.0f B at %d",
		plan, allocs[0], bytes[0], small, allocs[1], bytes[1], large)
	if fake != nil {
		t.Logf("%s: the fake servers' share of it %.0f and %.0f allocations", plan, fakeAllocs[0], fakeAllocs[1])
	}
	if !recycle {
		maxAllocs = maxAllocsRace + fakeAllocs[0]
	}
	if allocs[0] > maxAllocs {
		t.Errorf("%s: %.0f allocations per search of %d elements, budget %.0f", plan, allocs[0], small, maxAllocs)
	}
	if grown := allocs[1] - allocs[0]; grown >= (large-small)/256 {
		t.Errorf("%s: %.0f more allocations for %d more elements, budget under one per 256", plan, grown, large-small)
	}
	if !recycle {
		return
	}
	for i, elements := range []int{small, large} {
		if bytes[i] > maxBytes {
			t.Errorf("%s: %.0f B allocated per search of %d elements, budget %.0f", plan, bytes[i], elements, maxBytes)
		}
	}
}

// lookupAndRelease is the fake servers' side of one whole-list search:
// each answers a lookup of every list, whose slices go back to the pool
// as the client's join gives them back.
func lookupAndRelease(servers []cannedAPI) {
	for _, s := range servers {
		lists, _ := s.GetPostingLists(context.Background(), "", nil)
		for _, shares := range lists {
			posting.PutShares(shares)
		}
	}
}

// TestSearchAllocationBudget keeps the exact search's allocations a
// function of the number of lists, not of the number of elements: a
// whole search — fan-out, join, decrypt, filter, rank — over three
// lists takes 16 allocations and 1,504 B at either size, four of them
// and 672 B the two fake servers' result maps; the share slices in them
// come from posting's pool and go back once joined (20–25 allocations
// under the race detector, about 5 of them the fake servers').
func TestSearchAllocationBudget(t *testing.T) {
	allocationBudget(t, "exact", 16, 26, 4096, func(c *client.Client, elements int) {
		res, stats, err := c.Search("tok", syntheticQuery, 10)
		if err != nil {
			t.Fatal(err)
		}
		if want := elements / 3 * 3; stats.ElementsFetched != want || stats.FalsePositives != want/2 || len(res) != 10 {
			t.Fatalf("%d elements: fetched %d, false positives %d, %d results", elements, stats.ElementsFetched, stats.FalsePositives, len(res))
		}
	}, lookupAndRelease)
}

// BenchmarkRetrieveJoinRank measures the client's whole compute path —
// join, decrypt, false-positive filter and TF-IDF top-10 — over the
// synthetic response of TestSearchAllocationBudget, per element.
func BenchmarkRetrieveJoinRank(b *testing.B) {
	const elements = 3500
	c, _ := syntheticCluster(b, elements)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Search("tok", syntheticQuery, 10); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elements, "ns/element")
}

// TestTopKWholeListAllocationBudget is TestSearchAllocationBudget for
// the whole-list plan of top-k, which the three-term query takes: join,
// decrypt, filter and the summed-TF ranking: 16 allocations and 1,504 B,
// the maps included (19–28 allocations under the race detector, about
// 5 of them the fake servers').
func TestTopKWholeListAllocationBudget(t *testing.T) {
	allocationBudget(t, "whole-list top-k", 16, 26, 4096, func(c *client.Client, elements int) {
		res, stats, err := c.SearchTopK("tok", syntheticQuery, 10)
		if err != nil {
			t.Fatal(err)
		}
		if want := elements / 3 * 3; stats.ElementsFetched != want || stats.FalsePositives != want/2 || stats.TA.Depth != 1 || len(res) != 10 {
			t.Fatalf("%d elements: fetched %d, false positives %d, %d rounds, %d results", elements, stats.ElementsFetched, stats.FalsePositives, stats.TA.Depth, len(res))
		}
	}, lookupAndRelease)
}

// TestTopKStreamAllocationBudget is the same budget for the streamed
// plan, which a one-term query takes: its rounds each cost a fan-out, and
// their join, decrypt and ranking memory is recycled like the other
// plans', and each round's pages go back to posting's pool once
// joined: 13 allocations and 936 B (18–30 allocations under the race
// detector, the fake servers' page copies among them: the race budget is
// the one this plan had before they were pooled).
func TestTopKStreamAllocationBudget(t *testing.T) {
	allocationBudget(t, "streamed top-k", 18, 34, 4096, func(c *client.Client, elements int) {
		res, stats, err := c.SearchTopK("tok", syntheticQuery[:1], 10)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.TA.Streamed || stats.ElementsFetched == 0 || len(res) != 10 {
			t.Fatalf("%d elements: streamed %v, fetched %d, %d results", elements, stats.TA.Streamed, stats.ElementsFetched, len(res))
		}
	}, nil)
}
