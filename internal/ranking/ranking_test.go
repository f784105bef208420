package ranking

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestScoreAllBasic(t *testing.T) {
	in := Input{
		Query: []string{"martha", "layoff"},
		Lists: map[string][]Posting{
			"martha": {{DocID: 1, TF: 2}, {DocID: 2, TF: 1}},
			"layoff": {{DocID: 1, TF: 1}},
		},
		NumDocs: 10,
		DocFreq: map[string]int{"martha": 2, "layoff": 1},
		DocLen:  map[uint32]int{1: 10, 2: 10},
	}
	res := ScoreAll(in)
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].DocID != 1 {
		t.Errorf("top doc = %d, want 1 (matches both terms)", res[0].DocID)
	}
	if res[0].Score <= res[1].Score {
		t.Error("scores not descending")
	}
	// Hand-computed: doc1 = (2/10)*ln(1+10/2) + (1/10)*ln(1+10/1).
	want := 0.2*math.Log(6) + 0.1*math.Log(11)
	if math.Abs(res[0].Score-want) > 1e-12 {
		t.Errorf("doc1 score = %v, want %v", res[0].Score, want)
	}
}

func TestIDFRareTermsDominate(t *testing.T) {
	// A match on a rare term must outscore a match on a common term with
	// equal tf — the core of TF-IDF.
	in := Input{
		Query: []string{"rare", "common"},
		Lists: map[string][]Posting{
			"rare":   {{DocID: 1, TF: 1}},
			"common": {{DocID: 2, TF: 1}},
		},
		NumDocs: 1000,
		DocFreq: map[string]int{"rare": 1, "common": 900},
		DocLen:  map[uint32]int{1: 50, 2: 50},
	}
	res := ScoreAll(in)
	if res[0].DocID != 1 {
		t.Errorf("rare-term match must rank first, got doc %d", res[0].DocID)
	}
}

func TestDuplicateQueryTermsIgnored(t *testing.T) {
	lists := map[string][]Posting{"a": {{DocID: 1, TF: 1}}}
	base := Input{Query: []string{"a"}, Lists: lists, NumDocs: 5, DocFreq: map[string]int{"a": 1}}
	dup := Input{Query: []string{"a", "a", "a"}, Lists: lists, NumDocs: 5, DocFreq: map[string]int{"a": 1}}
	if ScoreAll(base)[0].Score != ScoreAll(dup)[0].Score {
		t.Error("duplicate query terms must not double-count")
	}
}

func TestDocLenNormalization(t *testing.T) {
	// Same tf, shorter document wins.
	in := Input{
		Query: []string{"x"},
		Lists: map[string][]Posting{
			"x": {{DocID: 1, TF: 3}, {DocID: 2, TF: 3}},
		},
		NumDocs: 10,
		DocFreq: map[string]int{"x": 2},
		DocLen:  map[uint32]int{1: 10, 2: 100},
	}
	res := ScoreAll(in)
	if res[0].DocID != 1 {
		t.Error("shorter document with equal tf must rank higher")
	}
}

// TestTopKMatchesScoreAll is the property both top-K implementations
// rest on. On random inputs — with and without document lengths, explicit
// and derived collection statistics, and frequencies from so small a
// range that scores tie constantly — the bounded-heap TopK is ScoreAll's
// prefix exactly, document for document and bit for bit, repeated
// (term, document) postings included; and on the trials without such
// repeats the Threshold Algorithm emulation TopKStats returns the same
// scores position by position, each for a document that really has it
// (which of several tied documents makes the cut is the one freedom TA's
// early exit has).
func TestTopKMatchesScoreAll(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		terms := []string{"t1", "t2", "t3", "t1"}
		lists := make(map[string][]Posting)
		numDocs := 5 + r.Intn(60)
		maxTF := 1 + r.Intn(3) // few distinct weights: ties at every cut
		if trial%5 == 0 {
			maxTF = 9
		}
		repeats := trial%4 == 3
		for _, term := range terms[:3] {
			seen := make(map[uint32]bool)
			for i, n := 0, r.Intn(40); i < n; i++ {
				d := uint32(r.Intn(numDocs))
				if seen[d] && !repeats {
					continue
				}
				seen[d] = true
				lists[term] = append(lists[term], Posting{DocID: d, TF: uint16(1 + r.Intn(maxTF))})
			}
		}
		in := Input{Query: terms, Lists: lists}
		if trial%2 == 0 {
			in.NumDocs = numDocs
			in.DocFreq = map[string]int{"t1": 1 + r.Intn(numDocs), "t3": 1 + r.Intn(numDocs)}
		}
		if trial%3 == 0 {
			in.DocLen = make(map[uint32]int)
			for d := 0; d < numDocs; d += 1 + r.Intn(2) {
				in.DocLen[uint32(d)] = 20 * (1 + r.Intn(3))
			}
		}
		all := ScoreAll(in)
		scoreOf := make(map[uint32]float64, len(all))
		for i, d := range all {
			if i > 0 && !outranks(all[i-1], d) {
				t.Fatalf("trial %d: ScoreAll out of order at %d: %v then %v", trial, i, all[i-1], d)
			}
			scoreOf[d.DocID] = d.Score
		}
		for _, k := range []int{1, 3, 10, 1000} {
			want := all[:min(k, len(all))]
			if got := TopK(in, k); !slices.Equal(got, want) {
				t.Fatalf("trial %d k=%d: TopK = %v, want ScoreAll's prefix %v", trial, k, got, want)
			}
			if repeats {
				continue
			}
			ta, _ := TopKStats(in, k)
			if len(ta) != len(want) {
				t.Fatalf("trial %d k=%d: TopKStats returned %d, want %d", trial, k, len(ta), len(want))
			}
			for i, d := range ta {
				if math.Abs(d.Score-want[i].Score) > 1e-9 {
					t.Fatalf("trial %d k=%d pos %d: TA score %v != exhaustive %v", trial, k, i, d.Score, want[i].Score)
				}
				if s, ok := scoreOf[d.DocID]; !ok || math.Abs(s-d.Score) > 1e-9 {
					t.Fatalf("trial %d k=%d pos %d: TA gave document %d score %v, it has %v", trial, k, i, d.DocID, d.Score, s)
				}
				if i > 0 && !outranks(ta[i-1], d) {
					t.Fatalf("trial %d k=%d: TA results out of order at %d: %v then %v", trial, k, i, ta[i-1], d)
				}
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	in := Input{
		Query:   []string{"a"},
		Lists:   map[string][]Posting{"a": {{DocID: 1, TF: 1}}},
		NumDocs: 1,
		DocFreq: map[string]int{"a": 1},
	}
	if got := TopK(in, 0); got != nil {
		t.Error("k=0 must return nil")
	}
	if got := TopK(Input{}, 5); got != nil {
		t.Error("empty query must return nil")
	}
	empty := Input{Query: []string{"missing"}, Lists: map[string][]Posting{}, NumDocs: 10}
	if got := TopK(empty, 5); len(got) != 0 {
		t.Errorf("no postings must yield no results, got %v", got)
	}
}

func TestTopKEarlyTermination(t *testing.T) {
	// With one dominant document, TA should not need to scan the tail.
	// We can't observe scan depth directly, but we verify correctness on
	// a skewed distribution where early termination is triggered.
	lists := map[string][]Posting{"a": nil, "b": nil}
	for d := uint32(0); d < 1000; d++ {
		lists["a"] = append(lists["a"], Posting{DocID: d, TF: 1})
		lists["b"] = append(lists["b"], Posting{DocID: d, TF: 1})
	}
	lists["a"][500].TF = 100
	lists["b"][500].TF = 100
	in := Input{
		Query:   []string{"a", "b"},
		Lists:   lists,
		NumDocs: 1000,
		DocFreq: map[string]int{"a": 1000, "b": 1000},
	}
	got := TopK(in, 1)
	if len(got) != 1 || got[0].DocID != 500 {
		t.Fatalf("TopK(1) = %v, want doc 500", got)
	}
}

func TestMissingDocFreqFallsBackToListLength(t *testing.T) {
	in := Input{
		Query:   []string{"a"},
		Lists:   map[string][]Posting{"a": {{DocID: 1, TF: 1}, {DocID: 2, TF: 1}}},
		NumDocs: 10,
		// DocFreq intentionally nil.
	}
	res := ScoreAll(in)
	want := math.Log(1 + 10.0/2.0)
	if math.Abs(res[0].Score-want) > 1e-12 {
		t.Errorf("score = %v, want %v (df from list length)", res[0].Score, want)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	in := Input{
		Query:   []string{"a"},
		Lists:   map[string][]Posting{"a": {{DocID: 5, TF: 1}, {DocID: 3, TF: 1}, {DocID: 9, TF: 1}}},
		NumDocs: 10,
		DocFreq: map[string]int{"a": 3},
	}
	res := ScoreAll(in)
	if res[0].DocID != 3 || res[1].DocID != 5 || res[2].DocID != 9 {
		t.Errorf("tie break not by ascending doc ID: %v", res)
	}
	top := TopK(in, 2)
	if top[0].DocID != 3 || top[1].DocID != 5 {
		t.Errorf("TopK tie break mismatch: %v", top)
	}
}

func TestTopKStatsEarlyExit(t *testing.T) {
	// On a skewed distribution the TA must stop long before scanning the
	// full lists — the sub-linear behaviour the paper quotes (§5.4.2).
	r := rand.New(rand.NewSource(9))
	lists := map[string][]Posting{"a": nil, "b": nil}
	for d := uint32(0); d < 20000; d++ {
		lists["a"] = append(lists["a"], Posting{DocID: d, TF: uint16(1 + r.Intn(5))})
		lists["b"] = append(lists["b"], Posting{DocID: d, TF: uint16(1 + r.Intn(5))})
	}
	// A clear winner near the front of both sorted lists.
	lists["a"][7777].TF = 30000
	lists["b"][7777].TF = 30000
	in := Input{
		Query:   []string{"a", "b"},
		Lists:   lists,
		NumDocs: 20000,
		DocFreq: map[string]int{"a": 20000, "b": 20000},
	}
	res, st := TopKStats(in, 1)
	if len(res) != 1 || res[0].DocID != 7777 {
		t.Fatalf("TopKStats = %v", res)
	}
	if st.TotalPostings != 40000 {
		t.Errorf("TotalPostings = %d", st.TotalPostings)
	}
	if st.Depth == 0 || st.Depth > 1000 {
		t.Errorf("TA scanned to depth %d of 20000; early exit broken", st.Depth)
	}
	if st.SortedAccesses >= st.TotalPostings/2 {
		t.Errorf("TA did %d sorted accesses of %d postings; not sub-linear", st.SortedAccesses, st.TotalPostings)
	}
}

func TestTopKStatsExhaustsWhenKLarge(t *testing.T) {
	in := Input{
		Query:   []string{"a"},
		Lists:   map[string][]Posting{"a": {{DocID: 1, TF: 1}, {DocID: 2, TF: 2}}},
		NumDocs: 2,
		DocFreq: map[string]int{"a": 2},
	}
	res, st := TopKStats(in, 100)
	if len(res) != 2 {
		t.Fatalf("res = %v", res)
	}
	if st.Depth != 2 || st.SortedAccesses != 2 {
		t.Errorf("stats = %+v, want full scan of 2", st)
	}
}

func BenchmarkTopK10Of10000(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	lists := map[string][]Posting{"a": nil, "b": nil}
	for d := uint32(0); d < 10000; d++ {
		lists["a"] = append(lists["a"], Posting{DocID: d, TF: uint16(1 + r.Intn(100))})
		if d%3 == 0 {
			lists["b"] = append(lists["b"], Posting{DocID: d, TF: uint16(1 + r.Intn(100))})
		}
	}
	in := Input{
		Query:   []string{"a", "b"},
		Lists:   lists,
		NumDocs: 10000,
		DocFreq: map[string]int{"a": 10000, "b": 3334},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TopK(in, 10)
	}
}
