package main

import (
	"fmt"
	"sort"

	"zerber/internal/posting"
	"zerber/internal/ranking"
)

// oracle is a plain inverted index with an ACL over the benchmark's own
// record of the live documents: the answer a trusted central index would
// give, which Zerber's merged, split and group-filtered lists must equal.
type oracle struct {
	postings map[string][]ranking.Posting
	group    map[uint32]uint32
}

// newOracle indexes live (document ID -> current term bag).
func newOracle(in *inputs, live map[uint32][]termTF) *oracle {
	o := &oracle{postings: make(map[string][]ranking.Posting), group: make(map[uint32]uint32, len(live))}
	for id, terms := range live {
		o.group[id] = in.docs[id-1].group
		for _, t := range terms {
			name := in.names[t.term]
			o.postings[name] = append(o.postings[name], ranking.Posting{DocID: id, TF: t.tf})
		}
	}
	return o
}

func dedupTerms(query []string) []string {
	seen := make(map[string]bool, len(query))
	var out []string
	for _, t := range query {
		if t != "" && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// expectedTopK is the frequency-sum ranking the top-k protocol must
// return: accessible documents scored by summed term frequency over the
// distinct query terms, ties by ascending document ID, cut to k.
func (o *oracle) expectedTopK(query []string, groups map[uint32]bool, k int) []ranking.ScoredDoc {
	scores := make(map[uint32]float64)
	for _, term := range dedupTerms(query) {
		for _, p := range o.postings[term] {
			if groups[o.group[p.DocID]] {
				scores[p.DocID] += float64(posting.ClampTF(int(p.TF)))
			}
		}
	}
	out := make([]ranking.ScoredDoc, 0, len(scores))
	for doc, sc := range scores {
		out = append(out, ranking.ScoredDoc{DocID: doc, Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].DocID < out[j].DocID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// matches is the set an exact search may draw from: accessible live
// documents containing at least one query term.
func (o *oracle) matches(query []string, groups map[uint32]bool) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, term := range dedupTerms(query) {
		for _, p := range o.postings[term] {
			if groups[o.group[p.DocID]] {
				out[p.DocID] = true
			}
		}
	}
	return out
}

// checkTopK compares a top-k result with the oracle's: same documents,
// same scores, same order, ties included.
func checkTopK(got, want []ranking.ScoredDoc) error {
	if len(got) != len(want) {
		return fmt.Errorf("top-k returned %d results, plain index has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].DocID || got[i].Score != want[i].Score {
			return fmt.Errorf("top-k rank %d is doc %d (score %g), plain index has doc %d (score %g)",
				i+1, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
		}
	}
	return nil
}

// checkExact checks an exact (TF-IDF ranked) result against the set the
// plain index allows: only accessible documents containing a query term,
// none twice, and min(k, matches) of them.
func checkExact(got []ranking.ScoredDoc, matches map[uint32]bool, k int) error {
	want := len(matches)
	if want > k {
		want = k
	}
	if len(got) != want {
		return fmt.Errorf("exact search returned %d results, plain index has %d matches (k=%d)", len(got), len(matches), k)
	}
	seen := make(map[uint32]bool, len(got))
	for _, d := range got {
		if !matches[d.DocID] {
			return fmt.Errorf("exact search returned doc %d, which is not an accessible match", d.DocID)
		}
		if seen[d.DocID] {
			return fmt.Errorf("exact search returned doc %d twice", d.DocID)
		}
		seen[d.DocID] = true
	}
	return nil
}
