// Package ranking implements Zerber's client-side result ranking
// (paper §5.4.2): TF-IDF relevance scoring over *personalized* collection
// statistics, and the no-random-access Threshold Algorithm (Fagin [14/15])
// behind networked top-k retrieval (Stream).
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

// accumulate is the one scoring pass ScoreAll and TopK share: it returns
// every document in lists, one list per query term, with its full TF-IDF
// score, in first-seen order. The first sweep gives each document a slot
// (one table probe per posting, the only ones) and settles the collection
// size; the second adds tf·idf contributions slot by slot, with each
// term's idf computed once instead of once per posting.
func accumulate(lists [][]Posting) []ScoredDoc {
	longest, total := 0, 0
	for _, ps := range lists {
		longest, total = max(longest, len(ps)), total+len(ps)
	}
	var table docTable
	slots := make([]int32, 0, total) // posting → its document's slot
	docs := make([]ScoredDoc, 0, longest)
	table.reserve(docs, longest)
	for _, ps := range lists {
		for _, p := range ps {
			slots = append(slots, int32(table.slotOf(&docs, p.DocID)))
		}
	}
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
// early exit that matters happens on the wire (Stream).
func TopK(lists [][]Posting, k int) []ScoredDoc {
	if k <= 0 {
		return nil
	}
	docs := accumulate(lists)
	if len(docs) == 0 {
		return nil
	}
	best := topHeap{k: k, docs: make([]ScoredDoc, 0, min(k, len(docs)))}
	for _, d := range docs {
		best.offer(d)
	}
	return best.ranked()
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
