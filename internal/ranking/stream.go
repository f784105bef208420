package ranking

import "slices"

// MaxStreamTerms is the widest query a Stream supports: per-candidate
// term coverage is tracked in one 64-bit mask. Clients fall back to
// exact retrieval for wider queries (which do not occur in practice).
const MaxStreamTerms = 64

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
// Unlike the in-memory TopKStats, the stream never takes a random
// access: a document's remaining terms are only resolved by deeper
// blocks, which is exactly the NRA variant's trade — no extra round
// trips, slightly deeper scans.
type Stream struct {
	k      int
	nTerms int
	bounds []float64
	open   []bool
	// Candidates by value: slotOf finds a document's slot, cands[slot]
	// holds its exact score so far (the sum of observed contributions)
	// and seen[slot] the bitmask of terms observed for it.
	slotOf map[uint32]int32
	cands  []ScoredDoc
	seen   []uint64
	best   topHeap // the current top k, reselected per convergence check
}

// NewStream returns a stream for a query of nTerms distinct terms.
// nTerms must be in [1, MaxStreamTerms]; every term starts open with an
// unbounded (+inf is unnecessary — the caller sets real bounds before
// asking for convergence, so the zero value is simply "unknown yet")
// conservative state of open until SetBound closes it.
func NewStream(nTerms, k int) *Stream {
	s := &Stream{
		k:      k,
		nTerms: nTerms,
		bounds: make([]float64, nTerms),
		open:   make([]bool, nTerms),
		slotOf: make(map[uint32]int32),
		best:   topHeap{k: k},
	}
	for i := range s.open {
		s.open[i] = true
	}
	return s
}

// Observe feeds one decrypted posting: document doc contributes weight w
// under query term index term. Duplicate (term, doc) observations are
// ignored, so redelivered elements cannot double-count.
func (s *Stream) Observe(term int, doc uint32, w float64) {
	slot, ok := s.slotOf[doc]
	if !ok {
		slot = int32(len(s.cands))
		s.slotOf[doc] = slot
		s.cands = append(s.cands, ScoredDoc{DocID: doc})
		s.seen = append(s.seen, 0)
	}
	bit := uint64(1) << uint(term)
	if s.seen[slot]&bit != 0 {
		return
	}
	s.seen[slot] |= bit
	s.cands[slot].Score += w
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
		if s.open[i] && s.seen[slot]&(uint64(1)<<uint(i)) == 0 {
			u += b
		}
	}
	return u
}

// exact reports whether a candidate's score is final: every still-open
// term has been observed for it.
func (s *Stream) exact(slot int) bool {
	for i := range s.open {
		if s.open[i] && s.seen[slot]&(uint64(1)<<uint(i)) == 0 {
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
