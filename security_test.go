package zerber_test

import (
	"fmt"
	"math"
	"testing"

	"zerber"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/shamir"
)

// These tests play the adversary of the threat model (§4, §7.1): Alice
// has taken over ONE index server and inspects everything stored there.

// buildAttackCluster indexes a small corpus with a known distribution and
// returns the cluster plus the corpus term probabilities.
func buildAttackCluster(t *testing.T) (*zerber.Cluster, *confidential.Distribution, map[string]int) {
	t.Helper()
	// A corpus whose document frequencies the adversary knows exactly
	// (her background knowledge B).
	dfs := map[string]int{}
	docs := []string{}
	common := []string{"report", "meeting", "budget", "status", "project", "team", "update", "plan"}
	for i := 0; i < 64; i++ {
		content := ""
		for j, term := range common {
			if i%(j+1) == 0 {
				content += term + " "
			}
		}
		if i == 13 {
			content += "hesselhofer" // the rare sensitive term
		}
		docs = append(docs, content)
	}
	for _, d := range docs {
		seen := map[string]bool{}
		for _, term := range splitWords(d) {
			if !seen[term] {
				seen[term] = true
				dfs[term]++
			}
		}
	}
	c, err := zerber.NewCluster(dfs, zerber.Options{
		Heuristic: zerber.UDM, M: 3, Seed: 1, N: 3, K: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("owner", 1)
	tok := c.IssueToken("owner")
	p, err := c.NewPeer("site", 5)
	if err != nil {
		t.Fatal(err)
	}
	batch := p.NewBatch()
	for i, d := range docs {
		if err := batch.Add(peer.Document{ID: uint32(i + 1), Content: d, Group: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.Flush(tok); err != nil {
		t.Fatal(err)
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	return c, dist, dfs
}

func splitWords(s string) []string {
	var out []string
	word := ""
	for _, r := range s {
		if r == ' ' {
			if word != "" {
				out = append(out, word)
				word = ""
			}
			continue
		}
		word += string(r)
	}
	if word != "" {
		out = append(out, word)
	}
	return out
}

func TestCompromisedServerSeesOnlyMergedLengths(t *testing.T) {
	c, _, dfs := buildAttackCluster(t)
	srv := c.Servers()[0] // Alice's box
	lengths := srv.Store().ListLengths()

	// The adversary observes merged list lengths. Verify no individual
	// term's document frequency is observable: every merged list's
	// length is the SUM over its member terms, and with M=3 over 9 terms
	// every list has multiple members.
	table := c.Table()
	members := table.Members(keys(dfs))
	for lid, ms := range members {
		if len(ms) < 2 {
			t.Fatalf("list %d has a single member; pick M to force merging in this test", lid)
		}
		want := 0
		for _, term := range ms {
			want += dfs[term]
		}
		if lengths[merging.ListID(lid)] != want {
			t.Errorf("list %d length %d != sum of member DFs %d", lid, lengths[merging.ListID(lid)], want)
		}
	}
}

func TestSingleServerSharesLookRandom(t *testing.T) {
	// §5.1: one share reveals nothing. Statistical smoke test: the share
	// values stored on one server are spread over the field rather than
	// clustered near the (tiny) plaintext encodings.
	c, _, _ := buildAttackCluster(t)
	srv := c.Servers()[0]
	small, total := 0, 0
	for lid := range srv.Store().ListLengths() {
		for _, sh := range srv.Store().Scan(lid, nil) {
			total++
			if sh.Y.Uint64() < 1<<61/1024 {
				small++
			}
		}
	}
	if total == 0 {
		t.Fatal("no shares stored")
	}
	// Plaintext elements all encode below 2^60; uniform shares land in
	// the bottom 1/1024 of the field with probability ~0.1%.
	if frac := float64(small) / float64(total); frac > 0.05 {
		t.Errorf("%.2f%% of shares are suspiciously small; shares may leak plaintext", 100*frac)
	}
}

func TestKMinusOneServersCannotDecrypt(t *testing.T) {
	// Colluding adversaries with k-1 = 1 server cannot reconstruct: any
	// candidate secret is consistent with the observed share. We verify
	// by brute force on one element: reconstructing with a WRONG second
	// share produces a different (arbitrary) value, and nothing in the
	// single share distinguishes the true secret.
	c, _, _ := buildAttackCluster(t)
	srv := c.Servers()[0]
	var lid merging.ListID
	for l := range srv.Store().ListLengths() {
		lid = l
		break
	}
	shares := srv.Store().Scan(lid, nil)
	if len(shares) == 0 {
		t.Fatal("no shares")
	}
	observed := shares[0]
	x1 := srv.XCoord()

	// For any candidate secret s there exists a line through (0, s) and
	// (x1, y1); so P(secret | one share) = P(secret). Construct the
	// witness for several candidates and confirm consistency.
	for s := uint64(0); s < 100; s++ {
		candidate := field.New(s * 1234567)
		slope := field.Div(field.Sub(observed.Y, candidate), x1)
		poly := field.Poly{candidate, slope}
		if poly.Eval(x1) != observed.Y {
			t.Fatal("witness construction failed; single share would rule out candidates")
		}
	}
}

func TestEmpiricalAmplificationWithinR(t *testing.T) {
	// Definition 1 end-to-end: for every term, the adversary's posterior
	// P(element is for term t | merged list) = p_t / Σ_{u∈L} p_u must not
	// exceed RValue * p_t.
	c, dist, dfs := buildAttackCluster(t)
	table := c.Table()
	r := table.RValue()

	members := table.Members(keys(dfs))
	for _, ms := range members {
		var sum float64
		for _, term := range ms {
			sum += dist.P(term)
		}
		for _, term := range ms {
			posterior := dist.P(term) / sum
			bound := r * dist.P(term)
			if posterior > bound*(1+1e-9) {
				t.Errorf("term %q: posterior %v exceeds r*prior %v (r=%v)", term, posterior, bound, r)
			}
		}
	}
}

func TestProactiveRefreshNeutralizesOldShares(t *testing.T) {
	// §5.1: "if an adversary learns some of the shares, proactive sharing
	// ... those she already knows become useless". Full-system check on a
	// synthetic element.
	xs := []field.Element{1, 2, 3}
	secret := field.Element(424242)
	shares, err := shamir.Split(secret, 2, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	stolen := shares[0] // adversary snapshot before refresh

	// The refresh adds a fresh sharing of zero to every share.
	deltas, err := shamir.Split(0, 2, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]shamir.Share, len(shares))
	for i, s := range shares {
		fresh[i] = shamir.Share{X: s.X, Y: field.Add(s.Y, deltas[i].Y)}
	}
	// Stolen share + one fresh share: wrong secret.
	got, err := shamir.Reconstruct([]shamir.Share{stolen, fresh[1]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got == secret {
		t.Fatal("stale+fresh shares reconstructed the secret")
	}
	// Two fresh shares: correct secret.
	got, err = shamir.Reconstruct([]shamir.Share{fresh[0], fresh[2]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Fatal("refresh corrupted the secret")
	}
}

func TestRareTermAbsentFromPublicStructures(t *testing.T) {
	// §6.4: with hash-based merging, inspecting the mapping table must
	// not reveal whether a rare term is indexed anywhere.
	dfs := map[string]int{}
	for i := 0; i < 200; i++ {
		dfs[fmt.Sprintf("common%03d", i)] = 100 - i/4
	}
	dfs["hesselhofer"] = 1
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := dist.P("common199") // everything at/below the tail is hashed
	tab, err := merging.Build(dist, merging.Options{
		Heuristic: merging.DFM, M: 16, R: 100, RareCutoff: cutoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Listed("hesselhofer") {
		t.Fatal("rare sensitive term appears in the public mapping table")
	}
	// Indexed and non-indexed rare terms are indistinguishable from the
	// table alone: both resolve through the same public hash.
	if tab.ListOf("hesselhofer") >= merging.ListID(tab.M()) ||
		tab.ListOf("neverindexedterm") >= merging.ListID(tab.M()) {
		t.Fatal("hash routing out of range")
	}
}

func TestAbsenceClaimsNotAmplified(t *testing.T) {
	// §5.2: the adversary's posterior for "t is NOT in d" never exceeds
	// the prior.
	_, dist, dfs := buildAttackCluster(t)
	terms := keys(dfs)
	var sum float64
	for _, term := range terms {
		sum += dist.P(term)
	}
	for _, term := range terms {
		ratio := confidential.AbsenceAmplification(dist.P(term), sum)
		if math.IsNaN(ratio) {
			continue
		}
		if ratio > 1+1e-12 {
			t.Errorf("absence claim for %q amplified by %v", term, ratio)
		}
	}
}

func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
