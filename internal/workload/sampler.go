package workload

import (
	"math/rand"
	"sort"
	"strings"
)

// QuerySampler draws queries from an observed query log according to
// its empirical query-frequency model: each distinct query is sampled
// with probability proportional to its frequency in the log, so a
// Zipfian log (corpus.SyntheticQueryLog) yields Zipfian traffic — the
// q_j of formula (6) become arrival rates. The soak gives each
// simulated user one sampler.
//
// Sampling is deterministic given the seed and the log order: two
// samplers built from the same log and seed produce identical query
// sequences. A QuerySampler is not safe for concurrent use; create one
// per worker (cheap: the log is shared, only the cumulative table and
// generator are owned).
type QuerySampler struct {
	rng     *rand.Rand
	queries [][]string
	cum     []int // cumulative frequency, parallel to queries
	total   int
}

// NewQuerySampler aggregates the log into its frequency model. Distinct
// queries keep their first-appearance order, so the model — and
// therefore the sample sequence for a given seed — is reproducible.
func NewQuerySampler(log [][]string, seed int64) *QuerySampler {
	index := make(map[string]int)
	var queries [][]string
	var freq []int
	for _, q := range log {
		key := strings.Join(q, "\x1f")
		if i, ok := index[key]; ok {
			freq[i]++
			continue
		}
		index[key] = len(queries)
		queries = append(queries, q)
		freq = append(freq, 1)
	}
	s := &QuerySampler{
		rng:     rand.New(rand.NewSource(seed)),
		queries: queries,
		cum:     make([]int, len(freq)),
	}
	for i, f := range freq {
		s.total += f
		s.cum[i] = s.total
	}
	return s
}

// Next draws one query. The returned slice is shared with the log and
// must not be modified. An empty log yields nil.
func (s *QuerySampler) Next() []string {
	if s.total == 0 {
		return nil
	}
	r := s.rng.Intn(s.total)
	i := sort.SearchInts(s.cum, r+1)
	return s.queries[i]
}

// Distinct returns the number of distinct queries in the model.
func (s *QuerySampler) Distinct() int { return len(s.queries) }
