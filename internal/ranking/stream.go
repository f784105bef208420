package ranking

import (
	"math/bits"
	"math/rand/v2"
	"slices"
)

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

// Stream is the incremental no-random-access Threshold Algorithm behind
// networked top-k retrieval (Zerber+R §6). The client feeds it decrypted
// postings in descending-impact block order via Observe, and after each
// block round publishes, per query term, an upper bound on the weight any
// not-yet-observed posting of that term can still have (SetBound). The
// stream maintains, for every candidate document, an exact lower bound
// (the observed contributions) and an upper bound (lower + the bounds of
// the terms not yet observed for it); Converged reports when the top k
// are provably final, including under score ties, so the result always
// equals what exhaustive retrieval would have ranked.
//
// Unlike the paper's TA (§5.4.2), the stream never takes a random
// access: a document's remaining terms are only resolved by deeper
// blocks, which is exactly the NRA variant's trade — no extra round
// trips, slightly deeper scans.
type Stream struct {
	k      int
	nTerms int
	bounds []float64
	open   []bool
	// Candidates by value: table finds a document's slot, cands[slot]
	// holds its exact score so far (the sum of observed contributions)
	// and seen[slot*words:][:words] the bitmask of terms observed for it.
	table docTable
	cands []ScoredDoc
	words int
	seen  []uint64
	best  topHeap // the current top k, reselected per convergence check
}

// NewStream returns a stream for a query of nTerms distinct terms, any
// number of them. Every term starts open — the caller sets real bounds
// before asking for convergence — until SetBound closes it.
func NewStream(nTerms, k int) *Stream {
	s := &Stream{
		k:      k,
		nTerms: nTerms,
		bounds: make([]float64, nTerms),
		open:   make([]bool, nTerms),
		words:  (nTerms + 63) / 64,
		best:   topHeap{k: k},
	}
	for i := range s.open {
		s.open[i] = true
	}
	return s
}

// Reserve makes room for n more candidates (a whole joined list) at once.
func (s *Stream) Reserve(n int) {
	n += len(s.cands)
	s.table.reserve(s.cands, n)
	s.cands = slices.Grow(s.cands, n-len(s.cands))
	s.seen = slices.Grow(s.seen, n*s.words-len(s.seen))
}

// Observe feeds one decrypted posting: document doc contributes weight w
// under query term index term. Duplicate (term, doc) observations are
// ignored: neither a redelivered element nor a list holding one posting
// twice can double-count.
func (s *Stream) Observe(term int, doc uint32, w float64) {
	slot := s.table.slotOf(&s.cands, doc)
	for len(s.seen) < (slot+1)*s.words {
		s.seen = append(s.seen, 0) // a new candidate's mask, one word at a time: no temporary
	}
	if s.sawTerm(slot, term) {
		return
	}
	s.seen[slot*s.words+term>>6] |= 1 << uint(term&63)
	s.cands[slot].Score += w
}

// sawTerm reports whether term has been observed for the candidate.
func (s *Stream) sawTerm(slot, term int) bool {
	return s.seen[slot*s.words+term>>6]&(1<<uint(term&63)) != 0
}

// SetBound publishes the caller's current knowledge about term: no
// posting of that term not yet passed to Observe can weigh more than
// bound, and open reports whether such postings may exist at all (false
// once the term's list is exhausted, at which point bound is ignored).
func (s *Stream) SetBound(term int, bound float64, open bool) {
	s.bounds[term] = bound
	s.open[term] = open
}

// unseenBound is the score an entirely unobserved document could still
// reach: the sum of every open term's bound.
func (s *Stream) unseenBound() float64 {
	total := 0.0
	for i, b := range s.bounds {
		if s.open[i] {
			total += b
		}
	}
	return total
}

// upper is a candidate's score upper bound: observed contributions plus
// the bound of every open term not yet observed for it.
func (s *Stream) upper(slot int) float64 {
	u := s.cands[slot].Score
	for i, b := range s.bounds {
		if s.open[i] && !s.sawTerm(slot, i) {
			u += b
		}
	}
	return u
}

// exact reports whether a candidate's score is final: every still-open
// term has been observed for it.
func (s *Stream) exact(slot int) bool {
	for i := range s.open {
		if s.open[i] && !s.sawTerm(slot, i) {
			return false
		}
	}
	return true
}

// topK returns the current best k candidates by (score desc, doc asc) —
// scores being the exact lower bounds — selected through the bounded
// heap, not by sorting every candidate. The slice is the stream's own
// and is overwritten by the next call.
func (s *Stream) topK() []ScoredDoc {
	s.best.docs = s.best.docs[:0]
	for _, c := range s.cands {
		s.best.offer(c)
	}
	return s.best.ranked()
}

// Converged reports whether the top k are provably final. It holds when
// every list is exhausted, or when (a) the current top k candidates all
// have exact scores, (b) no other candidate's upper bound can reach the
// k-th score — with ties resolved only when the contender's score is
// exact, since an inexact tie could still win on the ascending-doc-ID
// tiebreak — and (c) a document never observed at all is strictly below
// the k-th score (strictly: an unseen doc tying the k-th could displace
// it with a smaller doc ID).
func (s *Stream) Converged() bool {
	if s.k <= 0 {
		return true
	}
	allClosed := true
	for i := range s.open {
		if s.open[i] {
			allClosed = false
			break
		}
	}
	if allClosed {
		return true
	}
	if len(s.cands) < s.k {
		return false
	}
	top := s.topK()
	kth := top[len(top)-1]
	if s.unseenBound() >= kth.Score {
		return false
	}
	for slot, c := range s.cands {
		if !outranks(kth, c) {
			// In the top k (candidates are distinct documents, so
			// whatever kth does not outrank is kth or ranks above it).
			if !s.exact(slot) {
				return false
			}
			continue
		}
		u := s.upper(slot)
		if u > kth.Score {
			return false
		}
		if u == kth.Score && !s.exact(slot) {
			return false
		}
	}
	return true
}

// Results returns the final top k by (score desc, doc ID asc). It is
// meaningful once Converged reports true (or all input is exhausted);
// scores are then exact.
func (s *Stream) Results() []ScoredDoc {
	return slices.Clone(s.topK())
}

// Candidates returns the number of distinct documents observed so far.
func (s *Stream) Candidates() int { return len(s.cands) }
