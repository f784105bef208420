// Package merging implements Zerber's posting-list merging: the mapping
// table from terms to merged posting lists, the three heuristics of §6
// (Depth First Merging, Breadth First Merging, Uniform Distribution
// Merging), and the hash-based merging of rare terms (§6.4).
//
// Merging is what defends the index against statistical attacks: a
// compromised server sees only the combined length of a merged list and
// cannot recover per-term document frequencies. The heuristics trade the
// confidentiality level r (formula (7)) against query workload cost
// (formula (6)); the optimal trade-off is NP-complete (reduction from
// minimum sum of squares), so the paper uses these greedy schemes.
package merging

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"zerber/internal/confidential"
)

// ListID identifies one merged posting list.
type ListID uint32

// Heuristic names a merging strategy.
type Heuristic string

// The three heuristics of paper §6.
const (
	DFM Heuristic = "DFM" // Depth First Merging, Algorithm 3
	BFM Heuristic = "BFM" // Breadth First Merging, Algorithm 4
	UDM Heuristic = "UDM" // Uniform Distribution Merging, §6.3
)

// Errors returned by table construction.
var (
	ErrNoTerms    = errors.New("merging: no terms to merge")
	ErrBadM       = errors.New("merging: number of posting lists M must be >= 1")
	ErrBadR       = errors.New("merging: confidentiality parameter r must be > 0")
	ErrBadCutoff  = errors.New("merging: rare-term cutoff must be >= 0")
	ErrUnknownHeu = errors.New("merging: unknown heuristic")
)

// Options configures table construction.
type Options struct {
	// Heuristic selects DFM, BFM or UDM.
	Heuristic Heuristic
	// M is the number of merged posting lists. Required by DFM and UDM;
	// ignored by BFM (which discovers M from R).
	M int
	// R is the target confidentiality parameter: each merged list should
	// accumulate probability mass >= 1/R. Required by DFM and BFM;
	// ignored by UDM.
	R float64
	// RareCutoff routes terms with probability below the cutoff through
	// the public hash function instead of the mapping table (§6.4), so
	// they never appear in any shared structure. Zero disables hashing
	// (every term is listed, as in the paper's core experiments).
	RareCutoff float64
	// Seed drives the random redistribution of BFM's deficient last list
	// and makes construction deterministic.
	Seed int64
}

// Table is the publicly distributable mapping table: term -> merged
// posting list (Fig. 4), plus the hash route for rare terms.
type Table struct {
	heuristic  Heuristic
	m          int
	assign     map[string]ListID
	rareCutoff float64
	rValue     float64 // resulting r by formula (7), set by Build
	minMass    float64 // min over lists of Σ p_t
	// hashTargets are the lists rare terms may hash into: the lists that
	// already merge two or more mapping-table terms. Keeping the hash
	// away from singleton lists preserves §7.5's guarantee that each
	// head term "will have a posting list of its own under BFM and DFM".
	// When no list merges (or the table is empty), all lists are targets.
	hashTargets []ListID
}

// Build constructs a mapping table from the term probability distribution
// using the selected heuristic, then computes the resulting r value with
// formula (7): r = 1 / min_L Σ_{u∈L} p_u.
func Build(dist *confidential.Distribution, opts Options) (*Table, error) {
	if dist == nil || dist.Len() == 0 {
		return nil, ErrNoTerms
	}
	if opts.RareCutoff < 0 {
		return nil, ErrBadCutoff
	}

	// Split the vocabulary into mapping-table terms and hash-routed rare
	// terms (§6.4). The order is descending probability.
	all := dist.TermsByProbability()
	listed := all
	var rare []string
	if opts.RareCutoff > 0 {
		cut := sort.Search(len(all), func(i int) bool {
			return dist.P(all[i]) < opts.RareCutoff
		})
		listed, rare = all[:cut], all[cut:]
	}
	var (
		assign map[string]ListID
		m      int
		err    error
	)
	switch opts.Heuristic {
	case DFM:
		assign, m, err = buildDFM(dist, listed, opts.M, opts.R)
	case BFM:
		assign, m, err = buildBFM(dist, listed, opts.R, opts.Seed)
	case UDM:
		assign, m, err = buildUDM(listed, opts.M)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownHeu, opts.Heuristic)
	}
	if err != nil {
		return nil, err
	}

	t := &Table{
		heuristic:  opts.Heuristic,
		m:          m,
		assign:     assign,
		rareCutoff: opts.RareCutoff,
	}
	t.hashTargets = computeHashTargets(assign, m)

	// Resulting confidentiality (formula (7)) over the full assignment,
	// including hash-routed rare terms, which add their (small) mass to
	// whichever list the public hash selects. The terms are added in one
	// fixed order (listed is the distribution's, by descending
	// probability), not in map order: float addition is not associative,
	// and the table's JSON should be the same on every build.
	mass := make([]float64, m)
	for _, term := range listed {
		mass[assign[term]] += dist.P(term)
	}
	for _, term := range rare {
		mass[t.hashRoute(term)] += dist.P(term)
	}
	minMass := math.Inf(1)
	for _, s := range mass {
		if s < minMass {
			minMass = s
		}
	}
	t.minMass = minMass
	t.rValue = confidential.Amplification(minMass)
	return t, nil
}

// ListOf returns the merged posting list for a term: the mapping-table
// assignment when present, else the public hash route. Every term always
// resolves to a list, so lookups for brand-new terms succeed (§6.4:
// "Hash-based merging is also used to distribute the new terms randomly
// over the index").
func (t *Table) ListOf(term string) ListID {
	if lid, ok := t.assign[term]; ok {
		return lid
	}
	return t.hashRoute(term)
}

// hashRoute sends an unlisted term to one of the hash-target lists.
func (t *Table) hashRoute(term string) ListID {
	targets := t.hashTargets
	if len(targets) == 0 {
		return hashList(term, t.m)
	}
	h := fnv.New32a()
	h.Write([]byte(term)) // never fails
	return targets[h.Sum32()%uint32(len(targets))]
}

// computeHashTargets derives the rare-term hash targets from the public
// assignment: lists merging >= 2 listed terms, or every list if none do.
// Both owners and queriers derive this from the same public table, so
// routing stays consistent.
func computeHashTargets(assign map[string]ListID, m int) []ListID {
	members := make(map[ListID]int, m)
	for _, lid := range assign {
		members[lid]++
	}
	var targets []ListID
	for lid, n := range members {
		if n >= 2 {
			targets = append(targets, lid)
		}
	}
	if len(targets) == 0 {
		return nil // fall back to uniform over all m lists
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	return targets
}

// Listed reports whether the term appears in the public mapping table.
// Rare terms must never be listed — that is the §6.4 guarantee.
func (t *Table) Listed(term string) bool {
	_, ok := t.assign[term]
	return ok
}

// ListsOf maps a multi-term query to the distinct posting lists to
// request, preserving first-occurrence order.
func (t *Table) ListsOf(terms []string) []ListID {
	seen := make(map[ListID]struct{}, len(terms))
	out := make([]ListID, 0, len(terms))
	for _, term := range terms {
		lid := t.ListOf(term)
		if _, dup := seen[lid]; !dup {
			seen[lid] = struct{}{}
			out = append(out, lid)
		}
	}
	return out
}

// M returns the number of merged posting lists.
func (t *Table) M() int { return t.m }

// Heuristic returns the strategy the table was built with.
func (t *Table) Heuristic() Heuristic { return t.heuristic }

// RValue returns the resulting confidentiality parameter r (formula (7)).
// Smaller is better; r = 1 means the index reveals nothing beyond
// background knowledge.
func (t *Table) RValue() float64 { return t.rValue }

// MinMass returns min over lists of Σ p_t, i.e. 1/RValue. This is the
// "1/r" column of the paper's Table 1.
func (t *Table) MinMass() float64 { return t.minMass }

// NumListed returns the number of terms in the public mapping table.
func (t *Table) NumListed() int { return len(t.assign) }

// RareCutoff returns the probability threshold below which terms are
// hash-routed.
func (t *Table) RareCutoff() float64 { return t.rareCutoff }

// Members groups the given terms by their resolved posting list. The
// workload-model experiments use this to compute merged list lengths.
func (t *Table) Members(terms []string) map[ListID][]string {
	out := make(map[ListID][]string)
	for _, term := range terms {
		lid := t.ListOf(term)
		out[lid] = append(out[lid], term)
	}
	return out
}

// ListedTerms returns all mapping-table terms (sorted, for determinism).
func (t *Table) ListedTerms() []string {
	out := make([]string, 0, len(t.assign))
	for term := range t.assign {
		out = append(out, term)
	}
	sort.Strings(out)
	return out
}

// hashList routes a term to a list with the public hash function.
func hashList(term string, m int) ListID {
	h := fnv.New32a()
	h.Write([]byte(term)) // never fails
	return ListID(h.Sum32() % uint32(m))
}

// buildDFM implements Algorithm 3: terms sorted by descending probability
// are dealt into M lists top-to-bottom in rounds; once a list's
// accumulated mass exceeds 1/r it is marked filled and skipped. The
// algorithm as printed ends when every list is filled, leaving any
// remaining (rare) terms unassigned; we place that remainder greedily on
// the list with the least accumulated mass. This preserves the outcome
// §7.5 describes — the most frequent terms keep posting lists of their
// own (a hot singleton list has enormous mass and never attracts tail
// terms), while the tail spreads evenly over the tail lists — and only
// ever increases list masses, so the r-condition stays satisfied.
func buildDFM(dist *confidential.Distribution, terms []string, m int, r float64) (map[string]ListID, int, error) {
	if m < 1 {
		return nil, 0, ErrBadM
	}
	if r <= 0 {
		return nil, 0, ErrBadR
	}
	need := confidential.RequiredMass(r)
	assign := make(map[string]ListID, len(terms))
	mass := make([]float64, m)
	filled := make([]bool, m)
	numFilled := 0

	cursor := 0
	var overflow []string
	for i, term := range terms {
		if numFilled == m {
			overflow = terms[i:]
			break
		}
		// Advance to the next unfilled list.
		for filled[cursor%m] {
			cursor++
		}
		lid := cursor % m
		assign[term] = ListID(lid)
		mass[lid] += dist.P(term)
		if mass[lid] >= need {
			filled[lid] = true
			numFilled++
		}
		cursor++
	}
	if len(overflow) > 0 {
		h := newMassHeap(mass)
		for _, term := range overflow {
			lid := h.popMin()
			assign[term] = ListID(lid)
			h.push(lid, mass[lid]+dist.P(term))
			mass[lid] += dist.P(term)
		}
	}
	return assign, m, nil
}

// massHeap is a binary min-heap of (list, mass) used by DFM's overflow
// placement; hand-rolled to keep the mass slice authoritative.
type massHeap struct {
	lids []int
	mass []float64
}

func newMassHeap(mass []float64) *massHeap {
	h := &massHeap{mass: make([]float64, len(mass))}
	copy(h.mass, mass)
	h.lids = make([]int, len(mass))
	for i := range h.lids {
		h.lids[i] = i
	}
	for i := len(h.lids)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

func (h *massHeap) less(i, j int) bool { return h.mass[h.lids[i]] < h.mass[h.lids[j]] }

func (h *massHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h.lids) && h.less(l, min) {
			min = l
		}
		if r < len(h.lids) && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.lids[i], h.lids[min] = h.lids[min], h.lids[i]
		i = min
	}
}

func (h *massHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.lids[i], h.lids[parent] = h.lids[parent], h.lids[i]
		i = parent
	}
}

// popMin removes and returns the list with the least mass.
func (h *massHeap) popMin() int {
	lid := h.lids[0]
	last := len(h.lids) - 1
	h.lids[0] = h.lids[last]
	h.lids = h.lids[:last]
	if len(h.lids) > 0 {
		h.siftDown(0)
	}
	return lid
}

// push re-inserts a list with an updated mass.
func (h *massHeap) push(lid int, mass float64) {
	h.mass[lid] = mass
	h.lids = append(h.lids, lid)
	h.siftUp(len(h.lids) - 1)
}

// buildBFM implements Algorithm 4: fill list 0 with successive terms until
// its mass reaches 1/r, then open list 1, and so on. If the last list ends
// deficient, it is deleted and its terms are randomly distributed among
// the other lists.
func buildBFM(dist *confidential.Distribution, terms []string, r float64, seed int64) (map[string]ListID, int, error) {
	if r <= 0 {
		return nil, 0, ErrBadR
	}
	if len(terms) == 0 {
		return nil, 0, ErrNoTerms
	}
	need := confidential.RequiredMass(r)
	assign := make(map[string]ListID, len(terms))
	var lists [][]string
	var cur []string
	curMass := 0.0
	for _, term := range terms {
		cur = append(cur, term)
		curMass += dist.P(term)
		if curMass >= need {
			lists = append(lists, cur)
			cur, curMass = nil, 0
		}
	}
	if len(cur) > 0 {
		if len(lists) == 0 {
			// Everything fits in one (deficient) list; keep it rather
			// than produce an empty table.
			lists = append(lists, cur)
		} else {
			// Step 7-8: delete the deficient last list, scatter its terms.
			rng := rand.New(rand.NewSource(seed))
			for _, term := range cur {
				lid := ListID(rng.Intn(len(lists)))
				lists[lid] = append(lists[lid], term)
			}
		}
	}
	for lid, members := range lists {
		for _, term := range members {
			assign[term] = ListID(lid)
		}
	}
	return assign, len(lists), nil
}

// buildUDM implements §6.3: like DFM's round-robin dealing but ignoring
// accumulated probability entirely; the r value is computed afterwards.
func buildUDM(terms []string, m int) (map[string]ListID, int, error) {
	if m < 1 {
		return nil, 0, ErrBadM
	}
	assign := make(map[string]ListID, len(terms))
	for i, term := range terms {
		assign[term] = ListID(i % m)
	}
	return assign, m, nil
}
