package invindex

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddLookup(t *testing.T) {
	ix := New()
	ix.Add(1, map[string]int{"martha": 2, "imclone": 1})
	ix.Add(2, map[string]int{"layoff": 3})
	ix.Add(3, map[string]int{"martha": 1})

	pl := ix.Lookup("martha")
	if len(pl) != 2 {
		t.Fatalf("martha posting list has %d entries, want 2", len(pl))
	}
	if ix.DocFreq("martha") != 2 || ix.DocFreq("layoff") != 1 || ix.DocFreq("absent") != 0 {
		t.Error("document frequencies wrong")
	}
	if ix.NumDocs() != 3 {
		t.Errorf("NumDocs = %d, want 3", ix.NumDocs())
	}
	if ix.TotalPostings() != 4 {
		t.Errorf("TotalPostings = %d, want 4", ix.TotalPostings())
	}
	if ix.DocLen(1) != 3 {
		t.Errorf("DocLen(1) = %d, want 3", ix.DocLen(1))
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	ix := New()
	ix.Add(1, map[string]int{"a": 1})
	pl := ix.Lookup("a")
	pl[0].DocID = 999
	if got := ix.Lookup("a")[0].DocID; got != 1 {
		t.Error("Lookup must return a defensive copy")
	}
}

func TestRemove(t *testing.T) {
	ix := New()
	ix.Add(1, map[string]int{"a": 1, "b": 2})
	ix.Add(2, map[string]int{"a": 1})
	if !ix.Remove(1) {
		t.Fatal("Remove(1) reported missing")
	}
	if ix.Remove(1) {
		t.Fatal("second Remove(1) should report missing")
	}
	if ix.DocFreq("a") != 1 {
		t.Errorf("DocFreq(a) after removal = %d, want 1", ix.DocFreq("a"))
	}
	if ix.DocFreq("b") != 0 {
		t.Errorf("DocFreq(b) after removal = %d, want 0", ix.DocFreq("b"))
	}
	if ix.NumDocs() != 1 || ix.TotalPostings() != 1 {
		t.Error("counters not maintained across removal")
	}
	// Term with empty list must vanish from the vocabulary.
	for _, term := range ix.Terms() {
		if term == "b" {
			t.Error("empty posting list still listed in Terms")
		}
	}
}

func TestReAddReplacesDocument(t *testing.T) {
	ix := New()
	ix.Add(1, map[string]int{"old": 1})
	ix.Add(1, map[string]int{"new": 1})
	if ix.DocFreq("old") != 0 {
		t.Error("re-adding a document must drop its old postings")
	}
	if ix.DocFreq("new") != 1 {
		t.Error("re-added document postings missing")
	}
	if ix.NumDocs() != 1 {
		t.Errorf("NumDocs = %d, want 1", ix.NumDocs())
	}
}

func TestZeroAndNegativeCountsIgnored(t *testing.T) {
	ix := New()
	ix.Add(1, map[string]int{"a": 0, "b": -3, "c": 1})
	if ix.TotalPostings() != 1 {
		t.Errorf("TotalPostings = %d, want 1", ix.TotalPostings())
	}
}

func TestTFSaturation(t *testing.T) {
	ix := New()
	ix.Add(1, map[string]int{"huge": 1 << 20})
	if got := ix.Lookup("huge")[0].TF; got != 1<<16-1 {
		t.Errorf("TF = %d, want saturation at %d", got, 1<<16-1)
	}
}

func TestTermsSorted(t *testing.T) {
	ix := New()
	ix.Add(1, map[string]int{"zeta": 1, "alpha": 1, "mid": 1})
	terms := ix.Terms()
	want := []string{"alpha", "mid", "zeta"}
	if len(terms) != 3 {
		t.Fatalf("got %d terms", len(terms))
	}
	for i := range want {
		if terms[i] != want[i] {
			t.Errorf("terms[%d] = %q, want %q", i, terms[i], want[i])
		}
	}
}

func TestDocFreqsSnapshot(t *testing.T) {
	ix := New()
	ix.Add(1, map[string]int{"a": 1, "b": 1})
	ix.Add(2, map[string]int{"a": 1})
	dfs := ix.DocFreqs()
	if dfs["a"] != 2 || dfs["b"] != 1 {
		t.Errorf("DocFreqs = %v", dfs)
	}
	dfs["a"] = 99
	if ix.DocFreq("a") != 2 {
		t.Error("DocFreqs must be a snapshot, not a live view")
	}
}

func TestStorageBytes(t *testing.T) {
	ix := New()
	ix.Add(1, map[string]int{"a": 1, "b": 1})
	if got := ix.StorageBytes(); got != 2*PlainElementBytes {
		t.Errorf("StorageBytes = %d, want %d", got, 2*PlainElementBytes)
	}
}

func TestConcurrentAccess(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				doc := uint32(g*1000 + i)
				ix.Add(doc, map[string]int{"shared": 1, "private": r.Intn(3) + 1})
				_ = ix.Lookup("shared")
				_ = ix.DocFreq("private")
				if i%3 == 0 {
					ix.Remove(doc)
				}
			}
		}(g)
	}
	wg.Wait()
	// Invariant: postings counter equals sum of list lengths.
	total := 0
	for _, term := range ix.Terms() {
		total += ix.DocFreq(term)
	}
	if total != ix.TotalPostings() {
		t.Errorf("postings counter %d != sum of list lengths %d", ix.TotalPostings(), total)
	}
}

func TestInvariantPostingsCountQuick(t *testing.T) {
	// Property: after any sequence of adds/removes, TotalPostings equals
	// the sum over terms of DocFreq.
	f := func(ops []uint16) bool {
		ix := New()
		for _, op := range ops {
			doc := uint32(op % 32)
			switch op % 3 {
			case 0, 1:
				ix.Add(doc, map[string]int{
					"t" + string(rune('a'+op%7)): int(op%5) + 1,
					"t" + string(rune('a'+op%3)): int(op % 2),
				})
			case 2:
				ix.Remove(doc)
			}
		}
		total := 0
		for _, term := range ix.Terms() {
			total += ix.DocFreq(term)
		}
		return total == ix.TotalPostings()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// removeThenInsert is the model of TestIndexMatchesRemoveThenInsertModel:
// the index as it used to be kept, every list rebuilt on every change.
// Add drops all of the document's postings and appends the new ones.
type removeThenInsert struct {
	lists   map[string][]Posting
	docLens map[uint32]int
}

func (m *removeThenInsert) remove(docID uint32) {
	for term, pl := range m.lists {
		var out []Posting
		for _, p := range pl {
			if p.DocID != docID {
				out = append(out, p)
			}
		}
		if len(out) == 0 {
			delete(m.lists, term)
		} else {
			m.lists[term] = out
		}
	}
	delete(m.docLens, docID)
}

func (m *removeThenInsert) add(docID uint32, counts map[string]int) {
	m.remove(docID)
	total := 0
	for term, c := range counts {
		if c <= 0 {
			continue
		}
		m.lists[term] = append(m.lists[term], Posting{DocID: docID, TF: uint16(min(c, 1<<16-1))})
		total += c
	}
	m.docLens[docID] = total
}

// TestIndexMatchesRemoveThenInsertModel drives the diff-updated index
// and the remove-then-insert model through 2,000 random Add, re-Add and
// Remove steps and compares, after every step, everything a reader can
// see except the order inside a list (a re-Add no longer moves a
// posting to the tail): DocFreq, Lookup as a set, DocLen, HasDoc,
// TotalPostings, NumTerms, NumDocs.
func TestIndexMatchesRemoveThenInsertModel(t *testing.T) {
	const docs, vocab = 24, 16
	rng := rand.New(rand.NewSource(7))
	ix := New()
	model := &removeThenInsert{lists: make(map[string][]Posting), docLens: make(map[uint32]int)}
	term := func(i int) string { return "t" + string(rune('a'+i)) }
	for step := 0; step < 2000; step++ {
		doc := uint32(rng.Intn(docs))
		if rng.Intn(4) == 0 {
			_, had := model.docLens[doc]
			model.remove(doc)
			if got := ix.Remove(doc); got != had {
				t.Fatalf("step %d: Remove(%d) = %v, model held it: %v", step, doc, got, had)
			}
		} else {
			counts := make(map[string]int)
			if old := model.docLens[doc]; old > 0 && rng.Intn(2) == 0 {
				// An update in the benchmark's shape: most terms kept.
				for tm, pl := range model.lists {
					for _, p := range pl {
						if p.DocID == doc && rng.Intn(5) != 0 {
							counts[tm] = int(p.TF)
						}
					}
				}
			}
			for n := rng.Intn(5); n > 0; n-- {
				// Counts of every kind: ignored, ordinary, saturating.
				counts[term(rng.Intn(vocab))] = []int{-1, 0, 1, 2, 3, 7, 1<<16 - 1, 1 << 20}[rng.Intn(8)]
			}
			model.add(doc, counts)
			ix.Add(doc, counts)
		}

		postings := 0
		for i := 0; i < vocab; i++ {
			want := model.lists[term(i)]
			postings += len(want)
			if got := ix.DocFreq(term(i)); got != len(want) {
				t.Fatalf("step %d: DocFreq(%s) = %d, model %d", step, term(i), got, len(want))
			}
			got := make(map[Posting]bool)
			for _, p := range ix.Lookup(term(i)) {
				got[p] = true
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: Lookup(%s) holds %d distinct postings, model %d", step, term(i), len(got), len(want))
			}
			for _, p := range want {
				if !got[p] {
					t.Fatalf("step %d: Lookup(%s) lacks %+v", step, term(i), p)
				}
			}
		}
		if ix.TotalPostings() != postings || ix.NumTerms() != len(model.lists) || ix.NumDocs() != len(model.docLens) {
			t.Fatalf("step %d: postings/terms/docs = %d/%d/%d, model %d/%d/%d", step,
				ix.TotalPostings(), ix.NumTerms(), ix.NumDocs(), postings, len(model.lists), len(model.docLens))
		}
		for d := uint32(0); d < docs; d++ {
			wantLen, has := model.docLens[d]
			if ix.DocLen(d) != wantLen || ix.HasDoc(d) != has {
				t.Fatalf("step %d: doc %d: DocLen %d HasDoc %v, model %d %v", step, d, ix.DocLen(d), ix.HasDoc(d), wantLen, has)
			}
		}
	}
}

// TestReAddKeepsListOrder pins what the package doc promises: a posting
// stays where its first Add put it while its document keeps the term,
// whether the tf changes or not, and a dropped term closes its gap.
func TestReAddKeepsListOrder(t *testing.T) {
	ix := New()
	for d := uint32(1); d <= 3; d++ {
		ix.Add(d, map[string]int{"common": int(d), "other": 1})
	}
	ix.Add(1, map[string]int{"common": 9, "other": 1}) // tf retagged in place
	ix.Add(2, map[string]int{"common": 2})             // "other" dropped
	if got := ix.Lookup("common"); len(got) != 3 || got[0] != (Posting{1, 9}) || got[1] != (Posting{2, 2}) || got[2] != (Posting{3, 3}) {
		t.Errorf("common = %v, want docs 1, 2, 3 in insertion order with doc 1 at tf 9", got)
	}
	if got := ix.Lookup("other"); len(got) != 2 || got[0].DocID != 1 || got[1].DocID != 3 {
		t.Errorf("other = %v, want docs 1 and 3", got)
	}
}

func BenchmarkAddDocument(b *testing.B) {
	counts := make(map[string]int, 100)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		counts["term"+string(rune('a'+r.Intn(26)))+string(rune('a'+r.Intn(26)))] = 1 + r.Intn(5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := New()
		ix.Add(uint32(i), counts)
	}
}

func BenchmarkLookup(b *testing.B) {
	ix := New()
	for d := uint32(0); d < 1000; d++ {
		ix.Add(d, map[string]int{"common": 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Lookup("common")
	}
}
