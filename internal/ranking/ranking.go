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
	"sync"
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

// scratch is one ranking's working memory: the document table, the
// slot of each posting and TopKByTF's per-slot term marks. TopK and
// TopKByTF take one from scratchPool and put it back once best has
// copied the winners out, so nothing pooled reaches a caller; ScoreAll,
// whose result is the accumulated slice itself, uses a fresh one.
type scratch struct {
	table   docTable
	docs    []ScoredDoc
	slots   []int32
	counted []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// slotsOf gives every document in lists a slot in docs, in first-seen
// order with zero scores, and returns the slot of each posting, list
// after list: one table probe per posting, the only ones either scoring
// rule makes. Both slices are s's, valid until s is reused.
func (s *scratch) slotsOf(lists [][]Posting) (docs []ScoredDoc, slots []int32) {
	total := 0
	for _, ps := range lists {
		total += len(ps)
	}
	slots = slices.Grow(s.slots[:0], total)[:total]
	docs = slices.Grow(s.docs[:0], total)[:total]
	s.table.reset(total)
	entries, shift, mul := s.table.entries, s.table.shift, docHashMul
	mask, n, next := len(entries)-1, 0, 0
	for _, ps := range lists {
		for _, p := range ps {
			// The probe, inline: the entry holding p's document, or the
			// free one where its new slot goes (see docHashMul).
			doc := p.DocID
			h := uint64(doc) * mul
			for i := int((h ^ h>>32) * mul >> shift); ; i = (i + 1) & mask {
				e := entries[i]
				if e == 0 {
					docs[n] = ScoredDoc{DocID: doc}
					n++
					entries[i] = uint64(doc)<<32 | uint64(n)
					slots[next] = int32(n - 1)
					break
				}
				if uint32(e>>32) == doc {
					slots[next] = int32(uint32(e)) - 1
					break
				}
			}
			next++
		}
	}
	docs = docs[:n]
	s.docs, s.slots = docs, slots
	return docs, slots
}

// accumulate is the one scoring pass ScoreAll and TopK share: it returns
// every document in lists, one list per query term, with its full TF-IDF
// score, in first-seen order. Once slotsOf has settled the collection
// size, it adds tf·idf contributions slot by slot, with each term's idf
// computed once instead of once per posting.
func (s *scratch) accumulate(lists [][]Posting) []ScoredDoc {
	docs, slots := s.slotsOf(lists)
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
	out := new(scratch).accumulate(lists)
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
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return best(sc.accumulate(lists), k)
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
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	docs, slots := sc.slotsOf(lists)
	sc.counted = slices.Grow(sc.counted[:0], len(docs))[:len(docs)]
	counted := sc.counted // slot → 1 + the last term that added to it
	clear(counted)
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
		// Most documents miss the cut once the heap is full: they cost
		// one comparison with its worst, here rather than in a call.
		if len(h.docs) < k || outranks(d, h.docs[0]) {
			h.offer(d)
		}
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
// once: a pointer-free open-addressing table whose every entry packs the
// document and its slot into one word, so a probe reads one entry and no
// slice besides (slotsOf probes it). It is sized once per ranking, for
// every posting of the query, and never grows.
type docTable struct {
	shift   uint     // 64 - log2(len(entries))
	entries []uint64 // doc<<32 | slot+1, 0 = empty; len is a power of two
}

// docHashMul keys the hash, per process like a Go map's seed: document
// owners choose IDs, and must not be able to pile them up. The hash
// multiplies, folds the product's high half into its low half and
// multiplies again. One multiply-shift alone, under linear probing,
// spreads a run of consecutive IDs perfectly under most keys but into
// long clusters under some: up to 7 extra probes per document over
// 10,000 consecutive IDs, in 200 keys drawn.
var docHashMul = rand.Uint64() | 1

// reset empties the table and sizes it for n documents at load factor
// at most 1/2. The size is the power of two this n needs, cut from the
// memory of any earlier size, so only that much is cleared.
func (t *docTable) reset(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if size > cap(t.entries) {
		t.entries = make([]uint64, size)
	} else {
		t.entries = t.entries[:size]
		clear(t.entries)
	}
}
