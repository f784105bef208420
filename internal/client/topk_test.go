package client_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/peer"
	"zerber/internal/ranking"
)

// bruteTopK computes the frequency-sum top k from an exhaustive
// retrieval — the ground truth SearchTopK must reproduce exactly.
func bruteTopK(t *testing.T, c *client.Client, tok auth.Token, query []string, k int) []ranking.ScoredDoc {
	t.Helper()
	lists, _, err := c.Retrieve(tok, query)
	if err != nil {
		t.Fatal(err)
	}
	scores := make(map[uint32]float64)
	for _, ps := range lists {
		for _, p := range ps {
			scores[p.DocID] += float64(p.TF)
		}
	}
	out := make([]ranking.ScoredDoc, 0, len(scores))
	for doc, sc := range scores {
		out = append(out, ranking.ScoredDoc{DocID: doc, Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].DocID < out[j].DocID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func sameScored(a, b []ranking.ScoredDoc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].DocID != b[i].DocID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// TestSearchTopKMatchesExhaustive is the client-level property test: on
// a randomized corpus with merged lists and both user groups, SearchTopK
// returns exactly the exhaustive frequency-sum top k for every query
// shape, whichever plan it picks, even with a tiny block size forcing
// many rounds on the streamed one. (TestTopKPlansAgree runs both plans
// on every query.)
func TestSearchTopKMatchesExhaustive(t *testing.T) {
	e := newEnv(t, 2) // heavy merging -> false positives in the stream
	alice := e.svc.Issue("alice")
	bob := e.svc.Issue("bob")
	rng := rand.New(rand.NewSource(7))

	var aliceDocs, bobDocs []peer.Document
	for id := uint32(1); id <= 40; id++ {
		var words []string
		for _, term := range terms {
			for n := rng.Intn(5); n > 0; n-- {
				words = append(words, term)
			}
		}
		if len(words) == 0 {
			words = []string{terms[rng.Intn(len(terms))]}
		}
		if rng.Intn(2) == 0 {
			aliceDocs = append(aliceDocs, peer.Document{ID: id, Content: strings.Join(words, " "), Group: 1})
		} else {
			bobDocs = append(bobDocs, peer.Document{ID: id, Content: strings.Join(words, " "), Group: 2})
		}
	}
	e.index(t, alice, aliceDocs...)
	e.index(t, bob, bobDocs...)

	c := e.client(t)
	c.SetTuning(client.Tuning{BlockSize: 3})

	queries := [][]string{
		{"martha"},
		{"imclone", "layoff"},
		{"budget", "quarterly", "merger"},
		{"chemical", "process", "martha", "imclone"},
		{"martha", "martha", "unknown-term"},
	}
	for who, tok := range map[string]auth.Token{"alice": alice, "bob": bob} {
		for _, q := range queries {
			for _, k := range []int{1, 3, 10, 100} {
				want := bruteTopK(t, c, tok, q, k)
				got, stats, err := c.SearchTopK(tok, q, k)
				if err != nil {
					t.Fatalf("%s SearchTopK(%v, %d): %v", who, q, k, err)
				}
				if !sameScored(got, want) {
					t.Fatalf("%s SearchTopK(%v, %d) = %v, want %v", who, q, k, got, want)
				}
				if stats.TA.Depth == 0 && len(got) > 0 {
					t.Fatalf("%s SearchTopK(%v, %d): no rounds recorded in stats: %+v", who, q, k, stats)
				}
			}
		}
	}
}

// TestSearchTopKEarlyTermination pins the point of the feature: on a
// long list whose head is dominated by a few high-frequency documents,
// the loop decrypts far fewer elements than the list holds.
func TestSearchTopKEarlyTermination(t *testing.T) {
	e := newEnv(t, 1)
	alice := e.svc.Issue("alice")

	var docs []peer.Document
	// Three heavy hitters, then a long tail of single-occurrence docs.
	for id := uint32(1); id <= 3; id++ {
		docs = append(docs, peer.Document{ID: id, Content: strings.Repeat("martha ", 30), Group: 1})
	}
	for id := uint32(10); id < 210; id++ {
		docs = append(docs, peer.Document{ID: id, Content: "martha", Group: 1})
	}
	e.index(t, alice, docs...)

	c := e.client(t)
	c.SetTuning(client.Tuning{BlockSize: 8})
	got, stats, err := c.SearchTopK(alice, []string{"martha"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].DocID != 1 || got[1].DocID != 2 || got[2].DocID != 3 {
		t.Fatalf("top 3 = %v, want docs 1,2,3", got)
	}
	if stats.TA.TotalPostings != 203 {
		t.Errorf("TotalPostings = %d, want 203", stats.TA.TotalPostings)
	}
	if stats.TA.ElementsDecrypted >= stats.TA.TotalPostings/2 {
		t.Errorf("decrypted %d of %d postings: early termination did not bite", stats.TA.ElementsDecrypted, stats.TA.TotalPostings)
	}
	if stats.TA.BlocksFetched == 0 || stats.TA.WireBytes == 0 {
		t.Errorf("instrumentation empty: %+v", stats.TA)
	}
}

// TestSearchTopKExhaustsShortLists checks the walk to full exhaustion:
// when k exceeds the number of matching documents, every accessible
// posting is surfaced and the result equals the whole list.
func TestSearchTopKExhaustsShortLists(t *testing.T) {
	e := newEnv(t, 1)
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 1, Content: "merger merger merger", Group: 1},
		peer.Document{ID: 2, Content: "merger", Group: 1},
		peer.Document{ID: 3, Content: "quarterly", Group: 1},
	)
	c := e.client(t)
	c.SetTuning(client.Tuning{BlockSize: 1})
	got, _, err := c.SearchTopK(alice, []string{"merger", "quarterly"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []ranking.ScoredDoc{{DocID: 1, Score: 3}, {DocID: 2, Score: 1}, {DocID: 3, Score: 1}}
	if !sameScored(got, want) {
		t.Fatalf("SearchTopK = %v, want %v", got, want)
	}
}

// TestSearchTopKEdgeCases covers the degenerate inputs.
func TestSearchTopKEdgeCases(t *testing.T) {
	e := newEnv(t, 1)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})
	c := e.client(t)

	if got, _, err := c.SearchTopK(alice, []string{"martha"}, 0); err != nil || len(got) != 0 {
		t.Fatalf("k=0: got %v, %v", got, err)
	}
	if got, _, err := c.SearchTopK(alice, nil, 5); err != nil || len(got) != 0 {
		t.Fatalf("empty query: got %v, %v", got, err)
	}
	if got, _, err := c.SearchTopK(alice, []string{"no-such-term"}, 5); err != nil || len(got) != 0 {
		t.Fatalf("unknown term: got %v, %v", got, err)
	}
	if _, _, err := c.SearchTopK(auth.Token("bogus"), []string{"martha"}, 5); err == nil {
		t.Fatal("bad token: want error")
	}
}

// TestSearchTopKWideQueryFallback drives a query of more terms than a
// 64-bit word has bits through top-k and checks the ranking order.
func TestSearchTopKWideQueryFallback(t *testing.T) {
	e := newEnv(t, 1)
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 1, Content: "martha imclone", Group: 1},
		peer.Document{ID: 2, Content: "martha", Group: 1},
	)
	c := e.client(t)
	query := []string{"martha", "imclone"}
	for i := 0; i < 64+5; i++ {
		query = append(query, fmt.Sprintf("filler-%d", i))
	}
	got, _, err := c.SearchTopK(alice, query, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []ranking.ScoredDoc{{DocID: 1, Score: 2}, {DocID: 2, Score: 1}}
	if !sameScored(got, want) {
		t.Fatalf("wide query = %v, want %v", got, want)
	}
}

// TestSearchTopKReconstructorCache checks the satellite wiring: repeated
// queries against the same responder set hit the cached Lagrange basis.
func TestSearchTopKReconstructorCache(t *testing.T) {
	e := newEnv(t, 1)
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 1, Content: "martha martha", Group: 1},
		peer.Document{ID: 2, Content: "martha", Group: 1},
	)
	c := e.client(t)
	c.SetTuning(client.Tuning{Fanout: 1})

	_, first, err := c.SearchTopK(alice, []string{"martha"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if first.ReconstructorMisses == 0 {
		t.Fatalf("first query should build a basis: %+v", first)
	}
	_, second, err := c.SearchTopK(alice, []string{"martha"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if second.ReconstructorMisses != 0 || second.ReconstructorHits == 0 {
		t.Fatalf("second query should hit the cached basis: %+v", second)
	}
}
