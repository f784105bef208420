package ranking

import (
	"math"
	"math/rand"
	"testing"
)

// TestTopKByTFMatchesMapModel is the doc table's property test, through
// the summed-TF ranker: 10,000 random postings — duplicate (term,
// document) pairs, the extreme document IDs, a query wider than 64
// terms — must score exactly what a map of maps does, where a
// document's first posting in a term counts and later ones do not.
func TestTopKByTFMatchesMapModel(t *testing.T) {
	for _, nTerms := range []int{1, 3, 70} {
		rng := rand.New(rand.NewSource(int64(nTerms)))
		lists := make([][]Posting, nTerms)
		model := map[uint32]map[int]float64{}
		docs := []uint32{0, math.MaxUint32, 1, math.MaxUint32 - 1}
		for i := 0; i < 10000; i++ {
			var doc uint32
			switch rng.Intn(3) {
			case 0:
				doc = docs[rng.Intn(len(docs))] // an old acquaintance
			case 1:
				doc = uint32(rng.Intn(3000)) // dense, colliding after the multiply
			default:
				doc = rng.Uint32()
			}
			docs = append(docs, doc)
			term, tf := rng.Intn(nTerms), uint16(1+rng.Intn(1000))
			lists[term] = append(lists[term], Posting{DocID: doc, TF: tf})
			if model[doc] == nil {
				model[doc] = map[int]float64{}
			}
			if _, dup := model[doc][term]; !dup {
				model[doc][term] = float64(tf)
			}
		}
		got := TopKByTF(lists, 1<<30)
		if len(got) != len(model) {
			t.Fatalf("%d terms: %d results, model has %d documents", nTerms, len(got), len(model))
		}
		for i, d := range got {
			want := 0.0
			for _, tf := range model[d.DocID] {
				want += tf
			}
			if d.Score != want {
				t.Fatalf("%d terms: document %d scored %v, model says %v", nTerms, d.DocID, d.Score, want)
			}
			if i > 0 && !outranks(got[i-1], d) {
				t.Fatalf("%d terms: results out of order at %d: %v then %v", nTerms, i, got[i-1], d)
			}
		}
	}
}

// TestTopKByTFFirstPostingWins pins redelivery safety: a term's second
// posting for a document, equal or not, adds nothing; another term's
// posting for it does.
func TestTopKByTFFirstPostingWins(t *testing.T) {
	got := TopKByTF([][]Posting{
		{{DocID: 7, TF: 5}, {DocID: 7, TF: 5}, {DocID: 9, TF: 2}, {DocID: 9, TF: 6}},
		{{DocID: 7, TF: 3}},
	}, 5)
	want := []ScoredDoc{{DocID: 7, Score: 8}, {DocID: 9, Score: 2}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("TopKByTF = %v, want %v", got, want)
	}
	if TopKByTF([][]Posting{{{DocID: 1, TF: 1}}}, 0) != nil || TopKByTF(nil, 3) != nil {
		t.Error("k=0 and an empty query must return nil")
	}
}

// BenchmarkTopKByTF ranks the whole-list plan's load: 3,500 postings of
// three terms over 1,750 documents.
func BenchmarkTopKByTF(b *testing.B) {
	const postings, docs = 3500, 1750
	rng := rand.New(rand.NewSource(1))
	lists := make([][]Posting, 3)
	for j := 0; j < postings; j++ {
		doc := uint32(rng.Intn(docs)) * 2654435761
		lists[j*3/postings] = append(lists[j*3/postings], Posting{DocID: doc, TF: 1})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TopKByTF(lists, 10)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/postings, "ns/posting")
}
