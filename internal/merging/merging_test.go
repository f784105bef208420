package merging

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"zerber/internal/confidential"
)

// zipfDocFreqs builds a deterministic Zipf-ish document-frequency table
// with the given vocabulary size.
func zipfDocFreqs(n int) map[string]int {
	dfs := make(map[string]int, n)
	for i := 0; i < n; i++ {
		dfs[fmt.Sprintf("term%05d", i)] = 1 + 100000/(i+1)
	}
	return dfs
}

func mustDist(t *testing.T, dfs map[string]int) *confidential.Distribution {
	t.Helper()
	d, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func uniformDocFreqs(n int) map[string]int {
	dfs := make(map[string]int, n)
	for i := 0; i < n; i++ {
		dfs[fmt.Sprintf("u%04d", i)] = 7
	}
	return dfs
}

func TestUniformDistributionREqualsM(t *testing.T) {
	// Paper §6: "the r value in this case is equal to the number of merged
	// posting lists" for a uniform term distribution.
	d := mustDist(t, uniformDocFreqs(1000))
	for _, m := range []int{1, 2, 4, 10} {
		tab, err := Build(d, Options{Heuristic: UDM, M: m})
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.RValue(); math.Abs(got-float64(m)) > 1e-9 {
			t.Errorf("M=%d: r = %v, want %d", m, got, m)
		}
	}
}

func TestDFMAssignsEveryTerm(t *testing.T) {
	d := mustDist(t, zipfDocFreqs(500))
	tab, err := Build(d, Options{Heuristic: DFM, M: 16, R: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if tab.M() != 16 {
		t.Fatalf("M = %d, want 16", tab.M())
	}
	if tab.NumListed() != 500 {
		t.Fatalf("listed = %d, want all 500", tab.NumListed())
	}
	for term := range zipfDocFreqs(500) {
		if lid := tab.ListOf(term); int(lid) >= 16 {
			t.Fatalf("term %s assigned to out-of-range list %d", term, lid)
		}
	}
}

func TestDFMTopTermsGetOwnLists(t *testing.T) {
	// With a steep distribution and a generous r, DFM gives the most
	// frequent terms singleton lists (§7.5: the top ~1.83% of terms "will
	// have a posting list of its own under BFM and DFM").
	dfs := map[string]int{"huge": 1000000}
	for i := 0; i < 200; i++ {
		dfs[fmt.Sprintf("small%03d", i)] = 1
	}
	d := mustDist(t, dfs)
	// need = 1/r below p("huge") but above any small term's probability.
	tab, err := Build(d, Options{Heuristic: DFM, M: 8, R: 1 / (100.0 / 1000200.0)})
	if err != nil {
		t.Fatal(err)
	}
	hugeList := tab.ListOf("huge")
	for i := 0; i < 200; i++ {
		if tab.ListOf(fmt.Sprintf("small%03d", i)) == hugeList {
			t.Fatalf("small term shares the top term's list")
		}
	}
}

func TestBFMDiscoversM(t *testing.T) {
	d := mustDist(t, zipfDocFreqs(500))
	tab, err := Build(d, Options{Heuristic: BFM, R: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tab.M() < 1 {
		t.Fatalf("M = %d", tab.M())
	}
	// BFM must satisfy the r-constraint on every list: resulting r <= target.
	if tab.RValue() > 100+1e-9 {
		t.Errorf("resulting r = %v exceeds target 100", tab.RValue())
	}
	// All terms assigned.
	if tab.NumListed() != 500 {
		t.Errorf("listed = %d, want 500", tab.NumListed())
	}
}

func TestBFMDeficientLastListRedistributed(t *testing.T) {
	// Four terms with probabilities 0.4/0.3/0.2/0.1 and need=0.35: list 0
	// gets {t0}, list 1 gets {t1, t2} (0.3+0.2), leaving t3 (0.1)
	// deficient -> t3 must be scattered into an existing list.
	dfs := map[string]int{"t0": 40, "t1": 30, "t2": 20, "t3": 10}
	d := mustDist(t, dfs)
	tab, err := Build(d, Options{Heuristic: BFM, R: 1 / 0.35, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if tab.M() != 2 {
		t.Fatalf("M = %d, want 2 (third list deleted)", tab.M())
	}
	if int(tab.ListOf("t3")) >= 2 {
		t.Error("deficient term not redistributed")
	}
	// Every list still satisfies the r-condition.
	if tab.RValue() > 1/0.35+1e-9 {
		t.Errorf("r = %v exceeds target %v", tab.RValue(), 1/0.35)
	}
}

func TestBFMSingleDeficientListKept(t *testing.T) {
	// If the whole vocabulary cannot reach 1/r, BFM keeps one list rather
	// than returning an empty table.
	d := mustDist(t, map[string]int{"a": 1, "b": 1})
	tab, err := Build(d, Options{Heuristic: BFM, R: 0.5, Seed: 1}) // need = 2 > total mass 1
	if err != nil {
		t.Fatal(err)
	}
	if tab.M() != 1 {
		t.Fatalf("M = %d, want 1", tab.M())
	}
}

func TestUDMRoundRobin(t *testing.T) {
	d := mustDist(t, zipfDocFreqs(10))
	tab, err := Build(d, Options{Heuristic: UDM, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Terms sorted by descending probability are dealt 0,1,2,0,1,2,...
	terms := d.TermsByProbability()
	for i, term := range terms {
		if got := tab.ListOf(term); got != ListID(i%3) {
			t.Errorf("term %d (%s) in list %d, want %d", i, term, got, i%3)
		}
	}
}

func TestUDMMergesEvenTopTerms(t *testing.T) {
	// §7.6: "UDM merges even these most popular terms" — with M < number
	// of high-probability terms, the top terms share lists with others.
	d := mustDist(t, zipfDocFreqs(100))
	tab, err := Build(d, Options{Heuristic: UDM, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	members := tab.Members(d.TermsByProbability())
	for lid, ms := range members {
		if len(ms) < 2 {
			t.Errorf("list %d has only %d members; UDM should merge everything", lid, len(ms))
		}
	}
}

func TestDFMandBFMSameRSamePaperClaim(t *testing.T) {
	// Table 1: "For a given number of posting lists, BFM and DFM produce
	// the same r value." Build BFM first, read its M, then build DFM with
	// that M and the same target; compare resulting minimal masses.
	d := mustDist(t, zipfDocFreqs(2000))
	target := 5000.0
	bfm, err := Build(d, Options{Heuristic: BFM, R: target, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dfm, err := Build(d, Options{Heuristic: DFM, M: bfm.M(), R: target})
	if err != nil {
		t.Fatal(err)
	}
	// Both satisfy the target; their resulting r values are close (the
	// paper reports them as equal at its scales).
	if bfm.RValue() > target+1e-6 || dfm.RValue() > target*1.2 {
		t.Errorf("BFM r=%v DFM r=%v target=%v", bfm.RValue(), dfm.RValue(), target)
	}
}

func TestUDMWorseThanDFM(t *testing.T) {
	// Table 1 shape: UDM offers less confidentiality (higher r / smaller
	// 1/r) than DFM for the same M on a Zipfian distribution.
	d := mustDist(t, zipfDocFreqs(5000))
	m := 64
	dfm, err := Build(d, Options{Heuristic: DFM, M: m, R: 10000})
	if err != nil {
		t.Fatal(err)
	}
	udm, err := Build(d, Options{Heuristic: UDM, M: m})
	if err != nil {
		t.Fatal(err)
	}
	if udm.MinMass() > dfm.MinMass()*(1+1e-9) {
		t.Errorf("UDM min mass %v > DFM %v; expected UDM to be no better", udm.MinMass(), dfm.MinMass())
	}
}

func TestHashRoutingRareTerms(t *testing.T) {
	dfs := zipfDocFreqs(1000)
	d := mustDist(t, dfs)
	// Cut off the bottom of the distribution.
	cutoff := d.P("term00500")
	tab, err := Build(d, Options{Heuristic: DFM, M: 32, R: 1000, RareCutoff: cutoff})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumListed() >= 1000 {
		t.Fatal("rare terms leaked into the mapping table")
	}
	// §6.4 guarantee: rare terms are not listed but still resolve.
	rare := "term00999"
	if tab.Listed(rare) {
		t.Error("rare term appears in the public mapping table")
	}
	if lid := tab.ListOf(rare); int(lid) >= 32 {
		t.Errorf("rare term routed out of range: %d", lid)
	}
	// Deterministic routing: same term always lands on the same list.
	if tab.ListOf(rare) != tab.ListOf(rare) {
		t.Error("hash routing must be deterministic")
	}
	// Brand-new terms (never in the corpus) also resolve.
	if lid := tab.ListOf("hesselhofer"); int(lid) >= 32 {
		t.Errorf("new term routed out of range: %d", lid)
	}
}

func TestHashAvoidsSingletonLists(t *testing.T) {
	// §7.5: head terms keep posting lists of their own; rare terms must
	// hash into the merged lists, never into a head singleton.
	dfs := map[string]int{"hot1": 100000, "hot2": 90000}
	for i := 0; i < 50; i++ {
		dfs[fmt.Sprintf("mid%02d", i)] = 100 - i
	}
	for i := 0; i < 200; i++ {
		dfs[fmt.Sprintf("rare%03d", i)] = 1
	}
	d := mustDist(t, dfs)
	cutoff := d.P("mid49") // everything below mid49 is hash-routed
	tab, err := Build(d, Options{Heuristic: DFM, M: 8, R: 1 / cutoff, RareCutoff: cutoff * 0.99})
	if err != nil {
		t.Fatal(err)
	}
	hot1, hot2 := tab.ListOf("hot1"), tab.ListOf("hot2")
	// The two hot terms fill their lists alone in round 1.
	if hot1 == hot2 {
		t.Fatalf("hot terms merged: %d", hot1)
	}
	for i := 0; i < 200; i++ {
		lid := tab.ListOf(fmt.Sprintf("rare%03d", i))
		if lid == hot1 || lid == hot2 {
			t.Fatalf("rare term hashed into a hot singleton list %d", lid)
		}
	}
	// New, never-seen terms obey the same routing.
	for _, term := range []string{"hesselhofer", "zzz", "brandnew"} {
		lid := tab.ListOf(term)
		if lid == hot1 || lid == hot2 {
			t.Fatalf("new term %q hashed into a hot singleton list", term)
		}
	}
}

func TestHashFallsBackWhenAllSingleton(t *testing.T) {
	// If every list is a singleton there is nowhere else to hash; the
	// router must still resolve within range.
	dfs := map[string]int{"a": 10, "b": 9, "c": 8}
	d := mustDist(t, dfs)
	tab, err := Build(d, Options{Heuristic: DFM, M: 3, R: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if int(tab.ListOf("unseen")) >= 3 {
		t.Error("fallback hash routing out of range")
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	d := mustDist(t, zipfDocFreqs(500))
	orig, err := Build(d, Options{Heuristic: DFM, M: 16, R: 500, RareCutoff: d.P("term00100")})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var restored Table
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.M() != orig.M() || restored.Heuristic() != orig.Heuristic() ||
		restored.RValue() != orig.RValue() || restored.NumListed() != orig.NumListed() {
		t.Error("table metadata lost in JSON round trip")
	}
	// Routing identical for listed, rare, and unseen terms.
	terms := append(d.TermsByProbability(), "hesselhofer", "neverseen")
	for _, term := range terms {
		if restored.ListOf(term) != orig.ListOf(term) {
			t.Fatalf("routing for %q differs after round trip", term)
		}
	}
	// Bad payloads rejected.
	var bad Table
	if err := json.Unmarshal([]byte(`{"m":0}`), &bad); err == nil {
		t.Error("M=0 accepted")
	}
}

func TestListsOfDedup(t *testing.T) {
	d := mustDist(t, zipfDocFreqs(100))
	tab, err := Build(d, Options{Heuristic: UDM, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	terms := d.TermsByProbability()
	// terms[0] and terms[2] share list 0 under round-robin with M=2.
	lists := tab.ListsOf([]string{terms[0], terms[2], terms[1]})
	if len(lists) != 2 {
		t.Fatalf("ListsOf returned %d lists, want 2 (dedup)", len(lists))
	}
	if lists[0] != tab.ListOf(terms[0]) {
		t.Error("ListsOf must preserve first-occurrence order")
	}
}

func TestMembersPartition(t *testing.T) {
	d := mustDist(t, zipfDocFreqs(200))
	tab, err := Build(d, Options{Heuristic: DFM, M: 8, R: 500})
	if err != nil {
		t.Fatal(err)
	}
	terms := d.TermsByProbability()
	members := tab.Members(terms)
	count := 0
	for lid, ms := range members {
		count += len(ms)
		for _, term := range ms {
			if tab.ListOf(term) != lid {
				t.Fatalf("member %s of list %d resolves to %d", term, lid, tab.ListOf(term))
			}
		}
	}
	if count != len(terms) {
		t.Errorf("Members covers %d terms, want %d", count, len(terms))
	}
}

func TestRDecreasesWithM(t *testing.T) {
	// Fig. 8 shape: confidentiality degrades (r grows) as M grows.
	d := mustDist(t, zipfDocFreqs(5000))
	prev := 0.0
	for _, m := range []int{4, 16, 64, 256} {
		tab, err := Build(d, Options{Heuristic: UDM, M: m})
		if err != nil {
			t.Fatal(err)
		}
		if tab.RValue() < prev {
			t.Errorf("M=%d: r=%v decreased from %v; expected monotone growth", m, tab.RValue(), prev)
		}
		prev = tab.RValue()
	}
}

func TestValidation(t *testing.T) {
	d := mustDist(t, zipfDocFreqs(10))
	if _, err := Build(nil, Options{Heuristic: DFM, M: 1, R: 1}); !errors.Is(err, ErrNoTerms) {
		t.Errorf("nil dist: %v", err)
	}
	if _, err := Build(d, Options{Heuristic: DFM, M: 0, R: 1}); !errors.Is(err, ErrBadM) {
		t.Errorf("M=0: %v", err)
	}
	if _, err := Build(d, Options{Heuristic: DFM, M: 1, R: 0}); !errors.Is(err, ErrBadR) {
		t.Errorf("R=0: %v", err)
	}
	if _, err := Build(d, Options{Heuristic: BFM, R: -1}); !errors.Is(err, ErrBadR) {
		t.Errorf("BFM R<0: %v", err)
	}
	if _, err := Build(d, Options{Heuristic: UDM, M: 0}); !errors.Is(err, ErrBadM) {
		t.Errorf("UDM M=0: %v", err)
	}
	if _, err := Build(d, Options{Heuristic: "XYZ", M: 1, R: 1}); !errors.Is(err, ErrUnknownHeu) {
		t.Errorf("unknown heuristic: %v", err)
	}
	if _, err := Build(d, Options{Heuristic: DFM, M: 1, R: 1, RareCutoff: -0.1}); !errors.Is(err, ErrBadCutoff) {
		t.Errorf("bad cutoff: %v", err)
	}
}

func TestBuildDeterministic(t *testing.T) {
	d := mustDist(t, zipfDocFreqs(300))
	a, err := Build(d, Options{Heuristic: BFM, R: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(d, Options{Heuristic: BFM, R: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range d.TermsByProbability() {
		if a.ListOf(term) != b.ListOf(term) {
			t.Fatalf("nondeterministic assignment for %s", term)
		}
	}
}

// TestTableJSONReproducible builds one table 20 times per heuristic and
// requires the same JSON each time: r_value and min_mass are float sums
// over a list's terms, which differ in their last digits when the terms
// are added in a different order.
func TestTableJSONReproducible(t *testing.T) {
	d := mustDist(t, zipfDocFreqs(500))
	for _, opts := range []Options{{Heuristic: DFM, M: 4, R: 4}, {Heuristic: UDM, M: 4}, {Heuristic: UDM, M: 16, RareCutoff: 1e-4}} {
		var first []byte
		for i := 0; i < 20; i++ {
			tbl, err := Build(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(tbl)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = got
			} else if string(got) != string(first) {
				t.Fatalf("%+v: build %d wrote different JSON (r_value %v, min_mass %v)", opts, i+1, tbl.RValue(), tbl.MinMass())
			}
		}
	}
}

func TestSingleListPerfectConfidentiality(t *testing.T) {
	// §6: "if all terms are merged into one posting list, then r = 1".
	d := mustDist(t, zipfDocFreqs(50))
	tab, err := Build(d, Options{Heuristic: UDM, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tab.RValue()-1) > 1e-9 {
		t.Errorf("single-list r = %v, want 1", tab.RValue())
	}
}

func BenchmarkBuildDFM32K(b *testing.B) {
	dfs := make(map[string]int, 100000)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		dfs[fmt.Sprintf("t%06d", i)] = 1 + int(10000/float64(i+1)) + r.Intn(2)
	}
	d, err := confidential.NewDistribution(dfs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(d, Options{Heuristic: DFM, M: 32768, R: 1e6}); err != nil {
			b.Fatal(err)
		}
	}
}
