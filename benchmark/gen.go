package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// scale sizes one benchmark input set. "full" is what BENCHMARK.json
// measures; "tiny" exists so the package's tests can drive every
// workload in well under a second.
type scale struct {
	name string
	// Corpus shape.
	docs      int // documents generated
	vocab     int // distinct terms, Zipfian by rank
	meanTerms int // mean distinct terms per document (uniform in [mean/2, 3*mean/2])
	groups    int // access-control groups; documents are spread uniformly
	lists     int // M, merged posting lists
	// Query stream.
	queries int // distinct queries, replayed with Zipfian popularity
	// Write side.
	preload   int // documents bulk-loaded before the measured phase
	batchDocs int // documents per Batch.Flush during the bulk load
	journaled int // documents reserved for the journaled peer of the traced run
	// Disk engine (mixed-disk only): a cache about a twelfth of the data.
	cacheBytes   int
	segmentBytes int64
	// Correctness check and kernel sizes.
	checkQueries int
	kernelBatch  int
}

var scales = map[string]scale{
	"full": {
		name: "full", docs: 10000, vocab: 5000, meanTerms: 50, groups: 8, lists: 625,
		queries: 5000, preload: 8000, batchDocs: 500, journaled: 400,
		cacheBytes: 1 << 20, segmentBytes: 8 << 20,
		checkQueries: 200, kernelBatch: 4096,
	},
	"tiny": {
		name: "tiny", docs: 300, vocab: 400, meanTerms: 12, groups: 4, lists: 50,
		queries: 200, preload: 240, batchDocs: 60, journaled: 20,
		cacheBytes: 4 << 10, segmentBytes: 64 << 10,
		checkQueries: 40, kernelBatch: 256,
	},
}

// topK is the result size every search asks for.
const topK = 10

// termTF is one (term, frequency) pair of a document; term indexes the
// vocabulary by Zipf rank (0 is the most frequent term).
type termTF struct {
	term int32
	tf   uint16
}

// document is one generated document: a bag of distinct terms with
// counts, owned by one group.
type document struct {
	id    uint32
	group uint32
	terms []termTF // ascending term index
}

// inputs is everything a workload consumes, derived from the seed alone.
type inputs struct {
	sc    scale
	seed  int64
	names []string   // vocabulary: names[rank] is the term string
	docs  []document // docs[i].id == i+1
	// queries are distinct; queryCDF replays them with (flattened)
	// Zipfian popularity.
	queries  [][]string
	queryCDF []float64
	// searcherGroups is the half of the groups the searching user is in.
	searcherGroups []uint32
	termCDF        []float64
}

// queryShift flattens the head of the query popularity curve: the
// hottest query draws about 0.15% of the traffic and the hottest tenth of
// the queries a little over a third. Under a pure Zipfian curve a dozen
// queries would carry a third of the traffic, and a seed's luck in what
// those few queries cost would move every latency percentile by tens of
// percent from seed to seed.
const queryShift = 200

// zipfCDF returns the cumulative distribution of the Zipf-Mandelbrot
// weights 1/(rank+1+shift); shift 0 is the plain Zipfian 1/rank.
func zipfCDF(n int, shift float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / (float64(i+1) + shift)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// draw draws an index from a cumulative distribution.
func draw(cdf []float64, rng *rand.Rand) int {
	i := sort.SearchFloat64s(cdf, rng.Float64())
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// maxTF caps a drawn term frequency; a document of 50 terms then renders
// to about 350 tokens.
const maxTF = 1023

// drawTF draws a term frequency with a power-law tail, P(tf >= x) = 1/x:
// most postings have a count of 1 or 2 and sit in the lowest impact
// buckets, while a long list has a handful of very high counts. That is
// the shape the top-k protocol exists for — the head of a score-ordered
// list decides the result — and the shape under which it does much less
// work than exact retrieval.
func drawTF(rng *rand.Rand) uint16 {
	tf := 1 / (1 - rng.Float64())
	if tf > maxTF {
		return maxTF
	}
	return uint16(tf)
}

// generate builds the documents and the query stream for one seed.
func generate(sc scale, seed int64) *inputs {
	in := &inputs{sc: sc, seed: seed}
	in.names = make([]string, sc.vocab)
	for i := range in.names {
		in.names[i] = fmt.Sprintf("t%05d", i)
	}
	in.termCDF = zipfCDF(sc.vocab, 0)

	rng := rand.New(rand.NewSource(seed))
	in.docs = make([]document, sc.docs)
	for i := range in.docs {
		n := sc.meanTerms/2 + rng.Intn(sc.meanTerms+1)
		in.docs[i] = document{
			id:    uint32(i + 1),
			group: uint32(rng.Intn(sc.groups) + 1),
			terms: drawTerms(in.termCDF, n, rng),
		}
	}

	// The searching user is in half of the groups, so the server-side
	// group filter drops about half of every list.
	perm := rng.Perm(sc.groups)
	for _, g := range perm[:sc.groups/2] {
		in.searcherGroups = append(in.searcherGroups, uint32(g+1))
	}
	sort.Slice(in.searcherGroups, func(a, b int) bool { return in.searcherGroups[a] < in.searcherGroups[b] })

	qrng := rand.New(rand.NewSource(seed ^ 0x51ed270b))
	seen := make(map[string]bool, sc.queries)
	for len(in.queries) < sc.queries {
		n := 1 + qrng.Intn(3)
		picked := drawTerms(in.termCDF, n, qrng)
		q := make([]string, len(picked))
		for i, t := range picked {
			q[i] = in.names[t.term]
		}
		key := strings.Join(q, " ")
		if seen[key] {
			continue
		}
		seen[key] = true
		in.queries = append(in.queries, q)
	}
	in.queryCDF = zipfCDF(len(in.queries), queryShift)
	return in
}

// drawTerms draws n distinct Zipfian terms with frequencies, ascending.
func drawTerms(cdf []float64, n int, rng *rand.Rand) []termTF {
	if n > len(cdf) {
		n = len(cdf)
	}
	seen := make(map[int32]bool, n)
	out := make([]termTF, 0, n)
	for len(out) < n {
		t := int32(draw(cdf, rng))
		if seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, termTF{term: t, tf: drawTF(rng)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].term < out[b].term })
	return out
}

// docFreqs counts, per term, the documents containing it: the public
// statistics the mapping table is built from.
func (in *inputs) docFreqs() map[string]int {
	df := make(map[string]int, len(in.names))
	for i := range in.docs {
		for _, t := range in.docs[i].terms {
			df[in.names[t.term]]++
		}
	}
	return df
}

// content renders a term bag as indexable text.
func (in *inputs) content(terms []termTF) string {
	var sb strings.Builder
	for _, t := range terms {
		for c := uint16(0); c < t.tf; c++ {
			sb.WriteString(in.names[t.term])
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// queryStream is one client's deterministic walk over the query set.
type queryStream struct {
	in  *inputs
	rng *rand.Rand
}

func (in *inputs) stream(client int) *queryStream {
	return &queryStream{in: in, rng: rand.New(rand.NewSource(in.seed*1000003 + int64(client) + 7))}
}

func (q *queryStream) next() []string {
	return q.in.queries[draw(q.in.queryCDF, q.rng)]
}

// checkSet returns the fixed queries the correctness check (and the
// exactly repeating counts) run: uniform over the distinct queries, so
// rare multi-term queries are covered as well as the hot ones.
func (in *inputs) checkSet() [][]string {
	rng := rand.New(rand.NewSource(in.seed ^ 0x2545f491))
	out := make([][]string, in.sc.checkQueries)
	for i := range out {
		out[i] = in.queries[rng.Intn(len(in.queries))]
	}
	return out
}

// Mutation kinds of the script.
const (
	mutIndex  = "index"
	mutUpdate = "update"
	mutDelete = "delete"
)

// mutation is one step of a mutation script. terms is the document's
// full content after the step (nil for a delete).
type mutation struct {
	kind  string
	id    uint32
	group uint32
	terms []termTF
}

// script generates one mutator's operations over its own slice of the
// corpus: 50% update (three terms replaced), 25% delete, 25% index,
// pulled back toward the starting live count whenever it drifts.
// Operations depend only on the seed and their position in the stream.
type script struct {
	in     *inputs
	rng    *rand.Rand
	target int
	live   []int // indexes into in.docs
	free   []int // not in the index, available to (re)index
	cur    map[int][]termTF
}

// newScript owns docs[from:to); the first preload of them start live.
func (in *inputs) newScript(mutator, from, to, preload int) *script {
	s := &script{
		in:     in,
		rng:    rand.New(rand.NewSource(in.seed*7919 + int64(mutator) + 101)),
		target: preload,
		cur:    make(map[int][]termTF),
	}
	for i := from; i < to; i++ {
		if i-from < preload {
			s.live = append(s.live, i)
		} else {
			s.free = append(s.free, i)
		}
	}
	return s
}

// preloaded returns the documents that start live, in load order.
func (s *script) preloaded() []int { return append([]int(nil), s.live...) }

func (s *script) termsOf(i int) []termTF {
	if t, ok := s.cur[i]; ok {
		return t
	}
	return s.in.docs[i].terms
}

// next returns the following operation and advances the script's view
// of the live set as if it succeeded.
func (s *script) next() mutation {
	r := s.rng.Intn(4)
	switch {
	case len(s.live) == 0 || (len(s.live) < s.target-8 && len(s.free) > 0):
		r = 3
	case len(s.free) == 0 || len(s.live) > s.target+8:
		if r == 3 {
			r = 2
		}
	}
	switch r {
	case 0, 1: // update: replace three terms
		i := s.live[s.rng.Intn(len(s.live))]
		terms := append([]termTF(nil), s.termsOf(i)...)
		have := make(map[int32]bool, len(terms))
		for _, t := range terms {
			have[t.term] = true
		}
		for n := 0; n < 3 && n < len(terms); n++ {
			pos := s.rng.Intn(len(terms))
			for {
				t := int32(draw(s.in.termCDF, s.rng))
				if !have[t] {
					delete(have, terms[pos].term)
					have[t] = true
					terms[pos] = termTF{term: t, tf: drawTF(s.rng)}
					break
				}
			}
		}
		sort.Slice(terms, func(a, b int) bool { return terms[a].term < terms[b].term })
		s.cur[i] = terms
		d := s.in.docs[i]
		return mutation{kind: mutUpdate, id: d.id, group: d.group, terms: terms}
	case 2: // delete
		j := s.rng.Intn(len(s.live))
		i := s.live[j]
		s.live[j] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		s.free = append(s.free, i)
		delete(s.cur, i)
		d := s.in.docs[i]
		return mutation{kind: mutDelete, id: d.id, group: d.group}
	default: // index
		j := s.rng.Intn(len(s.free))
		i := s.free[j]
		s.free[j] = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.live = append(s.live, i)
		d := s.in.docs[i]
		return mutation{kind: mutIndex, id: d.id, group: d.group, terms: d.terms}
	}
}

// fingerprint hashes every generated input — documents, queries, the
// searcher's groups, and the first mutOps operations of two mutation
// scripts — so a test can assert that one seed gives identical inputs.
func (in *inputs) fingerprint(mutOps int) string {
	h := sha256.New()
	for i := range in.docs {
		d := &in.docs[i]
		hashU32(h, d.id, d.group, uint32(len(d.terms)))
		hashTerms(h, d.terms)
	}
	for _, q := range in.queries {
		h.Write([]byte(strings.Join(q, " ") + "\n"))
	}
	hashU32(h, in.searcherGroups...)
	half := len(in.docs) / 2
	for m, s := range []*script{
		in.newScript(0, 0, half, half*4/5),
		in.newScript(1, half, len(in.docs), half*4/5),
	} {
		for n := 0; n < mutOps; n++ {
			op := s.next()
			h.Write([]byte(op.kind))
			hashU32(h, uint32(m), op.id, op.group)
			hashTerms(h, op.terms)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashU32(h hash.Hash, vs ...uint32) {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
}

func hashTerms(h hash.Hash, terms []termTF) {
	for _, t := range terms {
		hashU32(h, uint32(t.term), uint32(t.tf))
	}
}

// rValueOf recomputes formula (7), r = 1 / min_L Σ p_t, from the
// benchmark's own document frequencies and a term -> list assignment, so
// the check does not trust the table's stored value.
func (in *inputs) rValueOf(listOf func(term string) uint32, lists int) float64 {
	df := in.docFreqs()
	total := 0
	for _, n := range df {
		total += n
	}
	// Summed in vocabulary order, not map order, so the value repeats
	// bit for bit.
	mass := make([]float64, lists)
	for _, term := range in.names {
		if n := df[term]; n > 0 {
			mass[listOf(term)] += float64(n) / float64(total)
		}
	}
	min := math.Inf(1)
	for _, m := range mass {
		if m < min {
			min = m
		}
	}
	if min <= 0 {
		return math.Inf(1)
	}
	return 1 / min
}
