// Package ranking implements Zerber's client-side result ranking: TF-IDF
// relevance scoring over *personalized* collection statistics for exact
// search (paper §5.4.2, TopK), and the summed term frequency that top-k
// retrieval ranks by (Zerber+R §6, TopKByTF). Both find a document's
// slot through one table and keep the best k in one heap.
//
// The statistics come from the decrypted lists themselves, which hold
// only the documents the user can access: the collection size N is the
// number of distinct documents in the query's lists and a term's document
// frequency the length of its list. tf is the raw count; the paper divides
// it by the document's length, but document lengths never reach the
// client.
//
// Ranking happens entirely at the client because the index servers must
// not see term frequencies in the clear — an adversary who takes over a
// server could reverse-engineer document contents from them (§5.4.2).
package ranking

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// Posting is one decrypted (document, term frequency) pair for one query
// term, as produced by the client after Shamir reconstruction.
type Posting struct {
	DocID uint32
	TF    uint16
}

// ScoredDoc is one ranked result.
type ScoredDoc struct {
	DocID uint32
	Score float64
}

// idf returns the inverse document frequency log(1 + N/df) of a term
// whose list holds df postings, in a collection of numDocs documents.
func idf(df, numDocs int) float64 {
	if df <= 0 || numDocs <= 0 {
		return 0
	}
	return math.Log(1 + float64(numDocs)/float64(df))
}

// slotsOf gives every document in lists a slot in docs, in first-seen
// order with zero scores, and returns the slot of each posting, list
// after list: one table probe per posting, the only ones either scoring
// rule makes.
func slotsOf(lists [][]Posting) (docs []ScoredDoc, slots []int32) {
	longest, total := 0, 0
	for _, ps := range lists {
		longest, total = max(longest, len(ps)), total+len(ps)
	}
	var table docTable
	slots = make([]int32, 0, total)
	docs = make([]ScoredDoc, 0, longest)
	table.reserve(docs, longest)
	for _, ps := range lists {
		for _, p := range ps {
			slots = append(slots, int32(table.slotOf(&docs, p.DocID)))
		}
	}
	return docs, slots
}

// accumulate is the one scoring pass ScoreAll and TopK share: it returns
// every document in lists, one list per query term, with its full TF-IDF
// score, in first-seen order. Once slotsOf has settled the collection
// size, it adds tf·idf contributions slot by slot, with each term's idf
// computed once instead of once per posting.
func accumulate(lists [][]Posting) []ScoredDoc {
	docs, slots := slotsOf(lists)
	for _, ps := range lists {
		w := idf(len(ps), len(docs))
		for i, p := range ps {
			docs[slots[i]].Score += float64(p.TF) * w
		}
		slots = slots[len(ps):]
	}
	return docs
}

// ScoreAll computes the full TF-IDF score of every document in lists, the
// decrypted postings of each distinct query term, and returns all of them
// sorted by descending score (ties by ascending doc ID). It is the
// exhaustive reference implementation; TopK must agree with its first K
// entries.
func ScoreAll(lists [][]Posting) []ScoredDoc {
	out := accumulate(lists)
	sortScored(out)
	return out
}

// TAStats instruments one top-k search (client.SearchTopK) on either of
// its plans: how much of the posting lists the Threshold Algorithm
// touched and what that moved over the wire. The paper quotes a
// sub-linear bound O(PLLength^((QT-1)/QT) * K^(1/QT)) for its modified TA
// (§5.4.2); TotalPostings against ElementsDecrypted makes the early exit
// observable.
type TAStats struct {
	// Depth is the number of block rounds consumed before the threshold
	// condition stopped the scan; 1 on the whole-list plan.
	Depth int
	// SortedAccesses counts entries seen via sorted access.
	SortedAccesses int
	// TotalPostings is the summed length of the query's posting lists.
	TotalPostings int
	// Streamed reports which of the client's two plans answered: rounds
	// of score-ordered blocks (true), or whole lists in one call, where
	// Depth is 1 and TotalPostings counts accessible elements only.
	Streamed bool
	// BlocksFetched counts score-ordered block requests sent to servers.
	BlocksFetched int
	// ElementsDecrypted counts posting elements actually reconstructed —
	// the early-termination win is TotalPostings/ElementsDecrypted.
	ElementsDecrypted int
	// WireBytes is the response payload volume under the wire encoding.
	WireBytes int
}

// TopK returns the K highest-scoring documents — ScoreAll's first K
// entries, scores included — by scoring every matching document once and
// keeping the best K in a bounded heap: O(postings + docs·log K), with no
// sort over the lists or over the documents. Once the lists are
// decrypted and in memory an early exit has nothing left to save; the
// early exit that matters happens on the wire, in top-k retrieval's
// streamed plan.
func TopK(lists [][]Posting, k int) []ScoredDoc {
	if k <= 0 {
		return nil
	}
	return best(accumulate(lists), k)
}

// TopKByTF returns the k best documents of lists, one list per query
// term, by summed term frequency, ties by ascending document ID: top-k
// retrieval's score, which needs no collection statistics, so it ranks a
// streamed list's prefix as well as whole lists. A document counts once
// per term, by the first of its postings in that term's list: neither a
// redelivered element nor a list holding one posting twice can
// double-count.
func TopKByTF(lists [][]Posting, k int) []ScoredDoc {
	if k <= 0 {
		return nil
	}
	docs, slots := slotsOf(lists)
	counted := make([]int32, len(docs)) // slot → 1 + the last term that added to it
	for term, ps := range lists {
		for i, p := range ps {
			if s := slots[i]; counted[s] != int32(term+1) {
				counted[s] = int32(term + 1)
				docs[s].Score += float64(p.TF)
			}
		}
		slots = slots[len(ps):]
	}
	return best(docs, k)
}

// best returns the k best of docs, best first, through the bounded heap.
func best(docs []ScoredDoc, k int) []ScoredDoc {
	if len(docs) == 0 {
		return nil
	}
	h := topHeap{k: k, docs: make([]ScoredDoc, 0, min(k, len(docs)))}
	for _, d := range docs {
		h.offer(d)
	}
	return h.ranked()
}

// outranks is the result order: higher score first, ties by ascending
// document ID. Over distinct documents it is a strict total order.
func outranks(a, b ScoredDoc) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.DocID < b.DocID
}

func sortScored(s []ScoredDoc) {
	slices.SortFunc(s, func(a, b ScoredDoc) int {
		switch {
		case outranks(a, b):
			return -1
		case outranks(b, a):
			return 1
		}
		return 0
	})
}

// topHeap keeps the k best documents offered to it: a binary heap with
// the worst kept document at the root, so an offer costs one comparison
// when it does not make the cut and O(log k) when it does.
type topHeap struct {
	k    int
	docs []ScoredDoc
}

func (h *topHeap) offer(d ScoredDoc) {
	if len(h.docs) < h.k {
		h.docs = append(h.docs, d)
		for i := len(h.docs) - 1; i > 0; {
			parent := (i - 1) / 2
			if !outranks(h.docs[parent], h.docs[i]) {
				break
			}
			h.docs[parent], h.docs[i] = h.docs[i], h.docs[parent]
			i = parent
		}
		return
	}
	if h.k <= 0 || !outranks(d, h.docs[0]) {
		return
	}
	h.docs[0] = d
	for i := 0; ; {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h.docs); c++ {
			if outranks(h.docs[worst], h.docs[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h.docs[i], h.docs[worst] = h.docs[worst], h.docs[i]
		i = worst
	}
}

// ranked returns the kept documents best first. It reorders the heap's
// own storage, so the heap must be refilled before it is offered more.
func (h *topHeap) ranked() []ScoredDoc {
	sortScored(h.docs)
	return h.docs
}

// docTable finds a document's slot in a []ScoredDoc holding each document
// once: a pointer-free open-addressing table of indices into that slice
// (the shape of the client's share join), grown by rehashing from it.
type docTable struct {
	shift uint     // 64 - log2(len(slots))
	slots []uint32 // doc hash → slot+1, 0 = empty; len is a power of two
}

// docHashMul keys the multiply-shift hash, per process like a Go map's
// seed: document owners choose IDs, and must not be able to pile them up.
var docHashMul = rand.Uint64() | 1

// reserve sizes the table for n documents at load factor at most 1/2.
func (t *docTable) reserve(docs []ScoredDoc, n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if size <= len(t.slots) {
		return
	}
	t.shift, t.slots = uint(64-bits.TrailingZeros(uint(size))), make([]uint32, size)
	for slot, d := range docs {
		t.slots[t.probe(docs, d.DocID)] = uint32(slot + 1)
	}
}

// probe returns the index in slots of doc's entry, or of the free entry
// where it belongs.
func (t *docTable) probe(docs []ScoredDoc, doc uint32) int {
	i := int(uint64(doc) * docHashMul >> t.shift)
	for t.slots[i] != 0 && docs[t.slots[i]-1].DocID != doc {
		i = (i + 1) & (len(t.slots) - 1)
	}
	return i
}

// slotOf returns doc's slot in *docs, appending an entry for a new one.
func (t *docTable) slotOf(docs *[]ScoredDoc, doc uint32) int {
	if 2*len(*docs) >= len(t.slots) {
		t.reserve(*docs, len(*docs)+1)
	}
	i := t.probe(*docs, doc)
	if t.slots[i] == 0 {
		*docs = append(*docs, ScoredDoc{DocID: doc})
		t.slots[i] = uint32(len(*docs))
	}
	return int(t.slots[i]) - 1
}
