package client_test

import (
	"math/rand"
	"sort"
	"testing"

	"zerber/internal/client"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/ranking"
	"zerber/internal/shamir"
	"zerber/internal/transport"
)

// cannedTerm returns a two-server, k=2 client whose servers hold one
// list: term's postings, in the order given on both servers, each
// element tagged with its impact bucket. The caller orders them
// bucket-major, as a store does, and so decides exactly what every block
// window holds.
func cannedTerm(t *testing.T, e *env, term string, posts []ranking.Posting, blockSize int) *client.Client {
	t.Helper()
	xs := []field.Element{10, 20}
	sp, err := shamir.NewSplitter(2, xs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(len(posts))))
	secrets := make([]field.Element, len(posts))
	for i, p := range posts {
		secrets[i] = posting.Element{DocID: p.DocID, TermID: e.voc.Resolve(term), TF: p.TF}.MustEncode()
	}
	ys := make([]field.Element, len(xs)*len(posts))
	if err := sp.SplitBatch(secrets, ys, rng); err != nil {
		t.Fatal(err)
	}
	apis := make([]transport.API, len(xs))
	for s, x := range xs {
		shares := make([]posting.EncryptedShare, len(posts))
		for i, p := range posts {
			gid := posting.TagImpact(posting.GlobalID(i+1), posting.ImpactBucket(p.TF))
			shares[i] = posting.EncryptedShare{GlobalID: gid, Group: 1, Y: ys[s*len(posts)+i]}
		}
		apis[s] = cannedAPI{x: x, lists: map[merging.ListID][]posting.EncryptedShare{e.table.ListOf(term): shares}}
	}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTuning(client.Tuning{BlockSize: blockSize})
	return c
}

// TestStreamedTopKMatchesExhaustive drives the streamed plan's stop rule
// over random one-term lists, impact-bucket ordered and arbitrary inside
// a bucket, with windows from one posting up: whenever it stops, its top
// k are the exhaustive (summed TF, doc ID ascending) top k, including
// ties at the k-th score.
func TestStreamedTopKMatchesExhaustive(t *testing.T) {
	e := newEnv(t, 1)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(5)
		var posts []ranking.Posting
		seen := map[uint32]bool{}
		for i, n := 0, rng.Intn(30); i < n; i++ {
			doc := uint32(rng.Intn(20))
			if !seen[doc] {
				seen[doc] = true
				posts = append(posts, ranking.Posting{DocID: doc, TF: uint16(1 + rng.Intn(200))})
			}
		}
		sort.SliceStable(posts, func(a, b int) bool {
			return posting.ImpactBucket(posts[a].TF) > posting.ImpactBucket(posts[b].TF)
		})
		want := make([]ranking.ScoredDoc, len(posts))
		for i, p := range posts {
			want[i] = ranking.ScoredDoc{DocID: p.DocID, Score: float64(p.TF)}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].Score != want[b].Score {
				return want[a].Score > want[b].Score
			}
			return want[a].DocID < want[b].DocID
		})
		want = want[:min(k, len(want))]

		c := cannedTerm(t, e, "martha", posts, 1+rng.Intn(4))
		got, _, err := c.SearchTopK("tok", []string{"martha"}, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sameScored(got, want) {
			t.Fatalf("trial %d k=%d:\ngot  %v\nwant %v\nlist %v", trial, k, got, want, posts)
		}
	}
}

// TestStreamedTopKStopsAfterHighImpactPrefix pins the point of the
// exercise: with fifty high-frequency postings in front of a long
// low-frequency tail, the first round's k-th score is far above the
// tail's bucket and the scan stops there, long before the tail is read.
func TestStreamedTopKStopsAfterHighImpactPrefix(t *testing.T) {
	const n, k, window = 10000, 10, 64
	posts := make([]ranking.Posting, n)
	for i := range posts {
		posts[i] = ranking.Posting{DocID: uint32(i), TF: 3}
		if i < 50 {
			posts[i].TF = 1000
		}
	}
	c := cannedTerm(t, newEnv(t, 1), "martha", posts, window)
	got, stats, err := c.SearchTopK("tok", []string{"martha"}, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k || got[0] != (ranking.ScoredDoc{DocID: 0, Score: 1000}) || got[k-1] != (ranking.ScoredDoc{DocID: k - 1, Score: 1000}) {
		t.Fatalf("top %d = %v, want documents 0..%d at 1000", k, got, k-1)
	}
	if stats.TA.Depth != 1 || stats.TA.ElementsDecrypted != window || stats.TA.TotalPostings != n {
		t.Errorf("read %d rounds, decrypted %d of %d postings; want 1 round of %d", stats.TA.Depth, stats.TA.ElementsDecrypted, stats.TA.TotalPostings, window)
	}
}

// TestStreamedTopKReadsOnAtBoundTie pins the strictness of the stop
// rule: after the first round the k-th score equals the largest
// frequency the next bucket allows, so an unread posting can tie it and
// win on a smaller document ID. The stream must read another round, and
// it finds exactly such a posting there.
func TestStreamedTopKReadsOnAtBoundTie(t *testing.T) {
	const k = 2
	tie := posting.BucketMaxTF(2) // 7, the top of the bucket [4, 7]
	posts := []ranking.Posting{
		{DocID: 5, TF: 15},  // bucket 3
		{DocID: 9, TF: tie}, // bucket 2: round one ends here
		{DocID: 3, TF: tie}, // bucket 2: ties document 9 and outranks it
		{DocID: 4, TF: 1},
		{DocID: 6, TF: 1},
	}
	c := cannedTerm(t, newEnv(t, 1), "martha", posts, 2)
	got, stats, err := c.SearchTopK("tok", []string{"martha"}, k)
	if err != nil {
		t.Fatal(err)
	}
	want := []ranking.ScoredDoc{{DocID: 5, Score: 15}, {DocID: 3, Score: float64(tie)}}
	if !sameScored(got, want) {
		t.Fatalf("top %d = %v, want %v: the stream stopped at a k-th score equal to its bound", k, got, want)
	}
	if stats.TA.Depth != 2 {
		t.Errorf("read %d rounds, want 2", stats.TA.Depth)
	}
}
