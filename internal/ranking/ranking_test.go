package ranking

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestScoreAllBasic(t *testing.T) {
	res := ScoreAll([][]Posting{
		{{DocID: 1, TF: 2}, {DocID: 2, TF: 1}}, // martha
		{{DocID: 1, TF: 1}},                    // layoff
	})
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].DocID != 1 {
		t.Errorf("top doc = %d, want 1 (matches both terms)", res[0].DocID)
	}
	if res[0].Score <= res[1].Score {
		t.Error("scores not descending")
	}
	// Hand-computed over N = 2 documents: doc1 = 2*ln(1+2/2) + 1*ln(1+2/1).
	want := 2*math.Log(2) + math.Log(3)
	if math.Abs(res[0].Score-want) > 1e-12 {
		t.Errorf("doc1 score = %v, want %v", res[0].Score, want)
	}
}

func TestIDFRareTermsDominate(t *testing.T) {
	// A match on a rare term must outscore a match on a common term with
	// equal tf — the core of TF-IDF.
	rare := []Posting{{DocID: 1, TF: 1}}
	var common []Posting
	for d := uint32(2); d <= 900; d++ {
		common = append(common, Posting{DocID: d, TF: 1})
	}
	res := ScoreAll([][]Posting{rare, common})
	if res[0].DocID != 1 {
		t.Errorf("rare-term match must rank first, got doc %d", res[0].DocID)
	}
}

// TestTopKMatchesScoreAll is the property TopK rests on. On random
// inputs — with frequencies from so small a range that scores tie
// constantly — the bounded-heap TopK is ScoreAll's prefix exactly,
// document for document and bit for bit, repeated (term, document)
// postings included.
func TestTopKMatchesScoreAll(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		lists := make([][]Posting, 3)
		numDocs := 5 + r.Intn(60)
		maxTF := 1 + r.Intn(3) // few distinct weights: ties at every cut
		if trial%5 == 0 {
			maxTF = 9
		}
		repeats := trial%4 == 3
		for ti := range lists {
			seen := make(map[uint32]bool)
			for i, n := 0, r.Intn(40); i < n; i++ {
				d := uint32(r.Intn(numDocs))
				if seen[d] && !repeats {
					continue
				}
				seen[d] = true
				lists[ti] = append(lists[ti], Posting{DocID: d, TF: uint16(1 + r.Intn(maxTF))})
			}
		}
		all := ScoreAll(lists)
		for i := 1; i < len(all); i++ {
			if !outranks(all[i-1], all[i]) {
				t.Fatalf("trial %d: ScoreAll out of order at %d: %v then %v", trial, i, all[i-1], all[i])
			}
		}
		for _, k := range []int{1, 3, 10, 1000} {
			want := all[:min(k, len(all))]
			if got := TopK(lists, k); !slices.Equal(got, want) {
				t.Fatalf("trial %d k=%d: TopK = %v, want ScoreAll's prefix %v", trial, k, got, want)
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if got := TopK([][]Posting{{{DocID: 1, TF: 1}}}, 0); got != nil {
		t.Error("k=0 must return nil")
	}
	if got := TopK(nil, 5); got != nil {
		t.Error("empty query must return nil")
	}
	if got := TopK([][]Posting{nil}, 5); len(got) != 0 {
		t.Errorf("no postings must yield no results, got %v", got)
	}
}

func TestTopKEarlyTermination(t *testing.T) {
	// One dominant document in the middle of two long uniform lists must
	// come out on top.
	lists := make([][]Posting, 2)
	for d := uint32(0); d < 1000; d++ {
		lists[0] = append(lists[0], Posting{DocID: d, TF: 1})
		lists[1] = append(lists[1], Posting{DocID: d, TF: 1})
	}
	lists[0][500].TF = 100
	lists[1][500].TF = 100
	got := TopK(lists, 1)
	if len(got) != 1 || got[0].DocID != 500 {
		t.Fatalf("TopK(1) = %v, want doc 500", got)
	}
}

// TestDocFreqIsListLength pins the personalized statistics: N counts the
// distinct documents in the lists and df is the length of a term's list.
func TestDocFreqIsListLength(t *testing.T) {
	a := []Posting{{DocID: 1, TF: 1}, {DocID: 2, TF: 1}}
	var b []Posting
	for d := uint32(3); d <= 10; d++ {
		b = append(b, Posting{DocID: d, TF: 1})
	}
	res := ScoreAll([][]Posting{a, b})
	want := math.Log(1 + 10.0/2.0)
	if res[0].DocID != 1 || math.Abs(res[0].Score-want) > 1e-12 {
		t.Errorf("top = %v, want document 1 scoring %v (N=10, df=2)", res[0], want)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	lists := [][]Posting{{{DocID: 5, TF: 1}, {DocID: 3, TF: 1}, {DocID: 9, TF: 1}}}
	res := ScoreAll(lists)
	if res[0].DocID != 3 || res[1].DocID != 5 || res[2].DocID != 9 {
		t.Errorf("tie break not by ascending doc ID: %v", res)
	}
	top := TopK(lists, 2)
	if top[0].DocID != 3 || top[1].DocID != 5 {
		t.Errorf("TopK tie break mismatch: %v", top)
	}
}

func BenchmarkTopK10Of10000(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	lists := make([][]Posting, 2)
	for d := uint32(0); d < 10000; d++ {
		lists[0] = append(lists[0], Posting{DocID: d, TF: uint16(1 + r.Intn(100))})
		if d%3 == 0 {
			lists[1] = append(lists[1], Posting{DocID: d, TF: uint16(1 + r.Intn(100))})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TopK(lists, 10)
	}
}
