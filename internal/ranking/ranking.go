// Package ranking implements Zerber's client-side result ranking
// (paper §5.4.2): TF-IDF relevance scoring over *personalized* collection
// statistics (only the documents the user can access), and a top-K cut
// via a modification of Fagin's Threshold Algorithm [14/15].
//
// Ranking happens entirely at the client because the index servers must
// not see term frequencies in the clear — an adversary who takes over a
// server could reverse-engineer document contents from them (§5.4.2).
package ranking

import (
	"math"
	"slices"
	"sort"
)

// Posting is one decrypted (document, term frequency) pair for one query
// term, as produced by the client after Shamir reconstruction.
type Posting struct {
	DocID uint32
	TF    uint16
}

// Input bundles everything the ranking step needs.
type Input struct {
	// Query lists the query terms; duplicates are ignored.
	Query []string
	// Lists holds, per query term, the decrypted postings.
	Lists map[string][]Posting
	// NumDocs is the number of documents accessible to the user — the
	// personalized collection size. Zero makes ScoreAll and TopK count
	// the distinct documents in Lists instead.
	NumDocs int
	// DocFreq gives, per query term, its document frequency among the
	// user's accessible documents. Zero values fall back to the list
	// length.
	DocFreq map[string]int
	// DocLen optionally maps documents to their total term counts for
	// length normalization (the paper's tf is "count divided by the
	// document's length"). Missing entries default to 1 (raw counts).
	DocLen map[uint32]int
}

// ScoredDoc is one ranked result.
type ScoredDoc struct {
	DocID uint32
	Score float64
}

// collectionSize is the N of the idf: NumDocs, or when that is zero
// distinct, the number of distinct documents in the query's lists.
func (in *Input) collectionSize(distinct int) int {
	if in.NumDocs != 0 {
		return in.NumDocs
	}
	return distinct
}

// idf returns term's inverse document frequency log(1 + N/df) in a
// collection of numDocs documents, with df from DocFreq or else the
// length of the term's list.
func (in *Input) idf(term string, numDocs int) float64 {
	df := in.DocFreq[term]
	if df == 0 {
		df = len(in.Lists[term])
	}
	if df <= 0 || numDocs <= 0 {
		return 0
	}
	return math.Log(1 + float64(numDocs)/float64(df))
}

// contribution is one posting's share of its document's score: tf,
// divided by the document's length when that is known, times idf.
func contribution(tf uint16, docLen, idf float64) float64 {
	tfNorm := float64(tf)
	if docLen > 0 {
		tfNorm /= docLen
	}
	return tfNorm * idf
}

// dedupQuery returns the distinct query terms preserving order.
func (in *Input) dedupQuery() []string {
	seen := make(map[string]struct{}, len(in.Query))
	out := make([]string, 0, len(in.Query))
	for _, t := range in.Query {
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	return out
}

// accumulate is the one scoring pass ScoreAll and TopK share: it returns
// every matching document with its full TF-IDF score, in first-seen
// order. The first sweep gives each document a slot (one table probe per
// posting, the only ones) and settles the collection size; the second
// adds tf·idf contributions slot by slot, with each term's idf and each
// document's length looked up once instead of once per posting.
func accumulate(in *Input) []ScoredDoc {
	terms := in.dedupQuery()
	longest, total := 0, 0
	for _, term := range terms {
		n := len(in.Lists[term])
		longest, total = max(longest, n), total+n
	}
	var table docTable
	slots := make([]int32, 0, total) // posting → its document's slot
	docs := make([]ScoredDoc, 0, longest)
	table.reserve(docs, longest)
	for _, term := range terms {
		for _, p := range in.Lists[term] {
			slots = append(slots, int32(table.slotOf(&docs, p.DocID)))
		}
	}
	var lens []float64 // slot → document length, when any are known
	if len(in.DocLen) > 0 {
		lens = make([]float64, len(docs))
		for slot, d := range docs {
			lens[slot] = float64(in.DocLen[d.DocID])
		}
	}
	numDocs := in.collectionSize(len(docs))
	for _, term := range terms {
		ps, idf := in.Lists[term], in.idf(term, numDocs)
		for i, p := range ps {
			slot := slots[i]
			docLen := 0.0
			if lens != nil {
				docLen = lens[slot]
			}
			docs[slot].Score += contribution(p.TF, docLen, idf)
		}
		slots = slots[len(ps):]
	}
	return docs
}

// ScoreAll computes the full TF-IDF score of every matching document and
// returns all results sorted by descending score (ties by ascending doc
// ID). It is the exhaustive reference implementation; TopK must agree
// with its first K entries.
func ScoreAll(in Input) []ScoredDoc {
	out := accumulate(&in)
	sortScored(out)
	return out
}

// TAStats instruments one TopK run, exposing how much of the posting
// lists the Threshold Algorithm actually touched. The paper quotes a
// sub-linear bound O(PLLength^((QT-1)/QT) * K^(1/QT)) for its modified
// TA (§5.4.2); the Depth/total ratio makes that early exit observable.
type TAStats struct {
	// Depth is the number of lockstep rounds (sorted-access positions)
	// consumed before the threshold condition stopped the scan.
	Depth int
	// SortedAccesses counts entries seen via sorted access.
	SortedAccesses int
	// RandomAccesses counts score completions via random access.
	RandomAccesses int
	// TotalPostings is the summed length of the query's posting lists.
	TotalPostings int

	// The remaining fields instrument networked top-k retrieval
	// (client.SearchTopK); the in-memory TopKStats leaves them zero.

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
func TopK(in Input, k int) []ScoredDoc {
	if k <= 0 {
		return nil
	}
	docs := accumulate(&in)
	if len(docs) == 0 {
		return nil
	}
	best := topHeap{k: k, docs: make([]ScoredDoc, 0, min(k, len(docs)))}
	for _, d := range docs {
		best.offer(d)
	}
	return best.ranked()
}

// TopKStats is the instrumented in-memory emulation of the paper's
// modified Threshold Algorithm (§5.4.2): per-term lists are sorted by
// descending contribution, scanned in lockstep with random access to
// complete each candidate's score, and the scan stops as soon as the
// K-th best score reaches the threshold (the sum of the current per-list
// contributions). It exists to make that early exit observable, not to
// be fast. Given at most one posting per term and document its scores
// equal TopK's position by position; the documents can differ only where
// equal scores straddle the cut.
func TopKStats(in Input, k int) ([]ScoredDoc, TAStats) {
	var st TAStats
	if k <= 0 {
		return nil, st
	}
	terms := in.dedupQuery()
	if len(terms) == 0 {
		return nil, st
	}

	// Per-term contribution lists, sorted descending.
	type entry struct {
		doc uint32
		w   float64
	}
	lists := make([][]entry, 0, len(terms))
	// Random-access structure: term index -> doc -> weight.
	access := make([]map[uint32]float64, 0, len(terms))
	numDocs := in.collectionSize(len(accumulate(&in))) // one entry per distinct document
	for _, term := range terms {
		ps, idf := in.Lists[term], in.idf(term, numDocs)
		st.TotalPostings += len(ps)
		es := make([]entry, 0, len(ps))
		am := make(map[uint32]float64, len(ps))
		for _, p := range ps {
			w := contribution(p.TF, float64(in.DocLen[p.DocID]), idf)
			es = append(es, entry{doc: p.DocID, w: w})
			am[p.DocID] = w
		}
		sort.Slice(es, func(i, j int) bool {
			if es[i].w != es[j].w {
				return es[i].w > es[j].w
			}
			return es[i].doc < es[j].doc
		})
		lists = append(lists, es)
		access = append(access, am)
	}

	seen := make(map[uint32]struct{})
	var top []ScoredDoc // kept sorted ascending by score for cheap kth lookup
	push := func(d ScoredDoc) {
		top = append(top, d)
		sort.Slice(top, func(i, j int) bool {
			if top[i].Score != top[j].Score {
				return top[i].Score < top[j].Score
			}
			return top[i].DocID > top[j].DocID
		})
		if len(top) > k {
			top = top[1:]
		}
	}

	for pos := 0; ; pos++ {
		threshold := 0.0
		exhausted := true
		for _, es := range lists {
			if pos >= len(es) {
				continue
			}
			exhausted = false
			st.SortedAccesses++
			threshold += es[pos].w
			doc := es[pos].doc
			if _, dup := seen[doc]; dup {
				continue
			}
			seen[doc] = struct{}{}
			// Random access: total score across all query terms.
			score := 0.0
			for ai := range access {
				score += access[ai][doc]
			}
			st.RandomAccesses += len(access)
			push(ScoredDoc{DocID: doc, Score: score})
		}
		if !exhausted {
			st.Depth = pos + 1
		}
		if exhausted {
			break
		}
		if len(top) >= k && top[0].Score >= threshold {
			break
		}
	}

	// Convert to descending order.
	out := make([]ScoredDoc, len(top))
	for i := range top {
		out[len(top)-1-i] = top[i]
	}
	return out, st
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
