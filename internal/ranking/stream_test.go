package ranking

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"zerber/internal/posting"
)

// TestStreamMatchesExhaustive drives the NRA stream the way the client
// does — impact-bucket-ordered blocks with quantized bounds — over random
// inputs, and checks the converged result equals the exhaustive top-k
// under the same (sum of TF, doc ID asc) order, including boundary ties.
func TestStreamMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		nTerms := 1 + rng.Intn(3)
		k := 1 + rng.Intn(5)
		blockSize := 1 + rng.Intn(4)

		type post struct {
			doc uint32
			tf  uint16
		}
		lists := make([][]post, nTerms)
		truth := map[uint32]float64{}
		for ti := range lists {
			n := rng.Intn(30)
			seen := map[uint32]bool{}
			for i := 0; i < n; i++ {
				doc := uint32(rng.Intn(20))
				if seen[doc] {
					continue
				}
				seen[doc] = true
				tf := uint16(1 + rng.Intn(200))
				lists[ti] = append(lists[ti], post{doc, tf})
				truth[doc] += float64(tf)
			}
			// Server order: impact bucket descending, arbitrary inside.
			sort.SliceStable(lists[ti], func(a, b int) bool {
				return posting.ImpactBucket(lists[ti][a].tf) > posting.ImpactBucket(lists[ti][b].tf)
			})
		}
		want := make([]ScoredDoc, 0, len(truth))
		for doc, sc := range truth {
			want = append(want, ScoredDoc{DocID: doc, Score: sc})
		}
		sortScored(want)
		if len(want) > k {
			want = want[:k]
		}

		s := NewStream(nTerms, k)
		fetched := make([]int, nTerms)
		for round := 0; ; round++ {
			progressed := false
			for ti, list := range lists {
				if fetched[ti] >= len(list) {
					s.SetBound(ti, 0, false)
					continue
				}
				end := fetched[ti] + blockSize
				if end > len(list) {
					end = len(list)
				}
				for _, p := range list[fetched[ti]:end] {
					s.Observe(ti, p.doc, float64(p.tf))
				}
				fetched[ti] = end
				progressed = true
				if end >= len(list) {
					s.SetBound(ti, 0, false)
				} else {
					b := posting.ImpactBucket(list[end].tf)
					s.SetBound(ti, float64(posting.BucketMaxTF(b)), true)
				}
			}
			if s.Converged() {
				break
			}
			if !progressed {
				t.Fatalf("trial %d: exhausted without converging", trial)
			}
		}
		got := s.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d\ngot:  %v\nwant: %v", trial, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result[%d] = %v, want %v\ngot:  %v\nwant: %v", trial, i, got[i], want[i], got, want)
			}
		}
	}
}

// TestStreamEarlyTermination pins the point of the exercise: with one
// hot term whose list has a few high-impact elements in front, the
// stream converges long before the tail is fetched.
func TestStreamEarlyTermination(t *testing.T) {
	const n, k = 10000, 10
	s := NewStream(1, k)
	// 50 high-TF docs, then a long uniform low-TF tail.
	fed := 0
	for i := 0; i < 64 && fed < n; i += 1 {
		var tf uint16
		if i < 50 {
			tf = 1000
		} else {
			tf = 3
		}
		s.Observe(0, uint32(i), float64(tf))
		fed++
	}
	// After one block round the bound is the tail bucket's max.
	s.SetBound(0, float64(posting.BucketMaxTF(posting.ImpactBucket(3))), true)
	if !s.Converged() {
		t.Fatal("stream did not converge after the high-impact prefix")
	}
	res := s.Results()
	if len(res) != k || res[0].Score != 1000 {
		t.Fatalf("unexpected results: %v", res[:3])
	}
}

// TestStreamDuplicateObserve pins redelivery safety: the same (term,
// doc) observation must not double-count.
func TestStreamDuplicateObserve(t *testing.T) {
	s := NewStream(2, 1)
	s.Observe(0, 7, 5)
	s.Observe(0, 7, 5)
	s.Observe(1, 7, 3)
	s.SetBound(0, 0, false)
	s.SetBound(1, 0, false)
	if !s.Converged() {
		t.Fatal("closed stream must converge")
	}
	res := s.Results()
	if len(res) != 1 || res[0].Score != 8 {
		t.Fatalf("score = %v, want 8", res)
	}
}

// TestStreamRoundAllocations: once a block's documents are candidates,
// observing a 512-posting block of another term and checking convergence
// allocates O(1) — candidates live by value and the top k is reselected
// in the stream's own heap, not by sorting a fresh copy of every
// candidate.
func TestStreamRoundAllocations(t *testing.T) {
	const block = 512
	s := NewStream(64, 10)
	term := 0
	round := func() {
		for doc := uint32(0); doc < block; doc++ {
			s.Observe(term, doc, float64(1+doc%7))
		}
		s.SetBound(term, 7, true)
		if s.Converged() {
			t.Fatal("open terms bounded above the k-th score cannot have converged")
		}
		term++
	}
	round() // creates the candidates
	if allocs := testing.AllocsPerRun(20, round); allocs > 1 {
		t.Errorf("a %d-posting round over existing candidates allocated %.1f times, want at most once", block, allocs)
	}
}

// TestStreamObserveMatchesMapModel is the flat candidate table's
// property test: 10,000 random observations — duplicates, the extreme
// document IDs, a query wider than one mask word, growth across several
// rehashes, with and without a reservation — must leave exactly the
// scores a map of maps would.
func TestStreamObserveMatchesMapModel(t *testing.T) {
	const nTerms = 70
	for _, reserve := range []int{0, 100, 20000} {
		rng := rand.New(rand.NewSource(int64(reserve)))
		s := NewStream(nTerms, 1<<30)
		s.Reserve(reserve)
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
			term, w := rng.Intn(nTerms), float64(1+rng.Intn(1000))
			s.Observe(term, doc, w)
			if model[doc] == nil {
				model[doc] = map[int]float64{}
			}
			if _, dup := model[doc][term]; !dup {
				model[doc][term] = w
			}
		}
		if s.Candidates() != len(model) {
			t.Fatalf("reserve %d: %d candidates, model has %d documents", reserve, s.Candidates(), len(model))
		}
		for i := range s.open {
			s.SetBound(i, 0, false)
		}
		got := s.Results()
		if len(got) != len(model) {
			t.Fatalf("reserve %d: %d results, want %d", reserve, len(got), len(model))
		}
		for _, d := range got {
			want := 0.0
			for _, w := range model[d.DocID] {
				want += w
			}
			if d.Score != want {
				t.Fatalf("reserve %d: document %d scored %v, model says %v", reserve, d.DocID, d.Score, want)
			}
		}
	}
}

// BenchmarkStreamObserve feeds a stream the whole-list plan's load:
// 3,500 postings of three terms over 1,750 documents. (With the
// map[uint32]int32 this table replaced: 50 ns per posting and 50
// allocations, against 23 and 7.)
func BenchmarkStreamObserve(b *testing.B) {
	const postings, docs = 3500, 1750
	rng := rand.New(rand.NewSource(1))
	ids := make([]uint32, postings)
	for i := range ids {
		ids[i] = uint32(rng.Intn(docs)) * 2654435761
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStream(3, 10)
		s.Reserve(postings / 3)
		for j, doc := range ids {
			s.Observe(j*3/postings, doc, 1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/postings, "ns/posting")
}
