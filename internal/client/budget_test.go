package client_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
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
// with no store, codec or network behind it.
type cannedAPI struct {
	x     field.Element
	lists map[merging.ListID][]posting.EncryptedShare
}

func (a cannedAPI) XCoord() field.Element { return a.x }
func (a cannedAPI) Apply(context.Context, auth.Token, transport.OpID, []transport.InsertOp, []transport.DeleteOp) error {
	return errors.New("read-only fake")
}
func (a cannedAPI) GetPostingLists(context.Context, auth.Token, []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	return a.lists, nil
}
func (a cannedAPI) GetPostingBlocks(_ context.Context, _ auth.Token, lid merging.ListID, from, n int) (transport.BlockPage, error) {
	list := a.lists[lid]
	from = min(from, len(list))
	end := min(from+n, len(list))
	page := transport.BlockPage{Shares: list[from:end], Total: len(list)}
	if end < len(list) {
		page.Next = posting.ImpactOf(list[end].GlobalID)
	}
	return page, nil
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
// reach the servers in different orders.
func syntheticCluster(tb testing.TB, elements int) *client.Client {
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
	return c
}

// TestSearchAllocationBudget keeps the read path's allocation count a
// function of the number of lists, not of the number of elements: a
// whole search — fan-out, join, decrypt, filter, rank — over 3,500
// elements in three lists stays within 64 allocations, and ten times the
// elements may add fewer than one allocation per 256 of them (slices
// that outgrow a size class, never per-element objects).
func TestSearchAllocationBudget(t *testing.T) {
	const small, large = 3500, 35000
	allocs := func(elements int) float64 {
		c := syntheticCluster(t, elements)
		search := func() {
			res, stats, err := c.Search("tok", syntheticQuery, 10)
			if err != nil {
				t.Fatal(err)
			}
			if want := elements / 3 * 3; stats.ElementsFetched != want || stats.FalsePositives != want/2 || len(res) != 10 {
				t.Fatalf("%d elements: fetched %d, false positives %d, %d results", elements, stats.ElementsFetched, stats.FalsePositives, len(res))
			}
		}
		search() // fill the basis cache
		return testing.AllocsPerRun(20, search)
	}
	atSmall, atLarge := allocs(small), allocs(large)
	t.Logf("allocations per search: %.0f at %d elements, %.0f at %d", atSmall, small, atLarge, large)
	if atSmall > 64 {
		t.Errorf("%.0f allocations per search of %d elements, budget 64", atSmall, small)
	}
	if grown := atLarge - atSmall; grown >= (large-small)/256 {
		t.Errorf("%.0f more allocations for %d more elements, budget under one per 256", grown, large-small)
	}
}

// BenchmarkRetrieveJoinRank measures the client's whole compute path —
// join, decrypt, false-positive filter and TF-IDF top-10 — over the
// synthetic response of TestSearchAllocationBudget, per element.
func BenchmarkRetrieveJoinRank(b *testing.B) {
	const elements = 3500
	c := syntheticCluster(b, elements)
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
// the whole-list plan of top-k, which the three-term query over lists
// the client has never seen takes: join, decrypt, filter and the
// summed-TF ranking over 3,500 elements stay within 45 allocations
// (29 measured, 32 under the race detector, whose tier runs this too),
// and ten times the elements add fewer than one per 256.
// One processor, so the count is not at the mercy of which of the
// fan-out's goroutines the scheduler runs first.
func TestTopKWholeListAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const small, large = 3500, 35000
	allocs := func(elements int) float64 {
		c := syntheticCluster(t, elements)
		search := func() {
			res, stats, err := c.SearchTopK("tok", syntheticQuery, 10)
			if err != nil {
				t.Fatal(err)
			}
			if want := elements / 3 * 3; stats.ElementsFetched != want || stats.FalsePositives != want/2 || stats.TA.Depth != 1 || len(res) != 10 {
				t.Fatalf("%d elements: fetched %d, false positives %d, %d rounds, %d results", elements, stats.ElementsFetched, stats.FalsePositives, stats.TA.Depth, len(res))
			}
		}
		search() // fill the basis cache
		return testing.AllocsPerRun(20, search)
	}
	atSmall, atLarge := allocs(small), allocs(large)
	t.Logf("allocations per whole-list top-k search: %.0f at %d elements, %.0f at %d", atSmall, small, atLarge, large)
	if atSmall > 45 {
		t.Errorf("%.0f allocations per search of %d elements, budget 45", atSmall, small)
	}
	if grown := atLarge - atSmall; grown >= (large-small)/256 {
		t.Errorf("%.0f more allocations for %d more elements, budget under one per 256", grown, large-small)
	}
}
