package zerber_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"zerber"
	"zerber/internal/peer"
	"zerber/internal/sim"
)

// TestDifferentialAgainstPlainIndex is a randomized oracle test of the
// paper's §2 correctness bar: Zerber's answer set must be "identical to
// that of a trusted centralized ordinary inverted index that incorporates
// an access control list check". We generate random corpora, memberships
// and queries, maintain the reference system (sim.Oracle — the same
// plain index + ACL oracle the model checker uses), and compare result
// sets after every mutation. Trial counts follow the test tiers: 2 under
// -short, 5 by default, 20 under ZERBER_TEST_FULL=1 (make test-full).
func TestDifferentialAgainstPlainIndex(t *testing.T) {
	vocabulary := []string{
		"martha", "imclone", "layoff", "merger", "budget", "meeting",
		"status", "compound", "process", "suitor", "review", "draft",
	}
	users := []zerber.UserID{"u0", "u1", "u2"}
	numGroups := 3

	trials := tierCount(2, 5, 20)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))

		dfs := make(map[string]int)
		for i, term := range vocabulary {
			dfs[term] = len(vocabulary) - i
		}
		c, err := zerber.NewCluster(dfs, zerber.Options{
			Seed: int64(trial), M: 1 + trial%4,
			Heuristic: []zerber.Heuristic{zerber.DFM, zerber.BFM, zerber.UDM}[trial%3],
			R:         2,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Random memberships (every user in at least one group), mirrored
		// into the oracle.
		oracle := sim.NewOracle()
		for _, u := range users {
			joined := 0
			for g := 1; g <= numGroups; g++ {
				if rng.Intn(2) == 0 || joined == 0 && g == numGroups {
					c.AddUser(u, zerber.GroupID(g))
					oracle.AddUser(u, zerber.GroupID(g))
					joined++
				}
			}
		}
		owner := users[0]
		for g := 1; g <= numGroups; g++ {
			if !oracle.Member(owner, zerber.GroupID(g)) {
				c.AddUser(owner, zerber.GroupID(g))
				oracle.AddUser(owner, zerber.GroupID(g))
			}
		}
		ownerTok := c.IssueToken(owner)

		site, err := c.NewPeer(fmt.Sprintf("site%d", trial), int64(trial+1))
		if err != nil {
			t.Fatal(err)
		}
		searcher, err := c.Searcher()
		if err != nil {
			t.Fatal(err)
		}

		live := map[uint32]bool{}

		randDoc := func(id uint32) peer.Document {
			n := 2 + rng.Intn(6)
			content := ""
			for i := 0; i < n; i++ {
				content += vocabulary[rng.Intn(len(vocabulary))] + " "
			}
			return peer.Document{
				ID: id, Content: content, Group: zerber.GroupID(1 + rng.Intn(numGroups)),
			}
		}

		check := func(step string) {
			t.Helper()
			for _, u := range users {
				tok := c.IssueToken(u)
				qn := 1 + rng.Intn(3)
				query := make([]string, qn)
				for i := range query {
					query[i] = vocabulary[rng.Intn(len(vocabulary))]
				}
				got, err := searcher.Search(tok, query, 1000)
				if err != nil {
					t.Fatalf("trial %d %s: search: %v", trial, step, err)
				}
				gotSet := map[uint32]bool{}
				for _, r := range got {
					gotSet[r.DocID] = true
				}
				wantSet := oracle.Expected(u, query)
				if len(gotSet) != len(wantSet) {
					t.Fatalf("trial %d %s: user %s query %v: zerber=%v oracle=%v",
						trial, step, u, query, keysOf(gotSet), keysOf(wantSet))
				}
				for d := range wantSet {
					if !gotSet[d] {
						t.Fatalf("trial %d %s: user %s query %v missing doc %d",
							trial, step, u, query, d)
					}
				}
			}
		}

		// Mutation script: inserts, updates, deletes interleaved with
		// consistency checks.
		nextID := uint32(1)
		for step := 0; step < 25; step++ {
			switch op := rng.Intn(4); {
			case op <= 1 || len(live) == 0: // insert
				doc := randDoc(nextID)
				nextID++
				if err := site.IndexDocument(ownerTok, doc); err != nil {
					t.Fatal(err)
				}
				oracle.Index(doc.ID, doc.Content, doc.Group)
				live[doc.ID] = true
			case op == 2: // update
				id := anyOf(rng, live)
				doc := randDoc(id)
				g, _ := oracle.GroupOf(id)
				doc.Group = g // group stays
				if err := site.UpdateDocument(ownerTok, doc); err != nil {
					t.Fatal(err)
				}
				oracle.Index(id, doc.Content, g)
			case op == 3: // delete
				id := anyOf(rng, live)
				if err := site.DeleteDocument(ownerTok, id); err != nil {
					t.Fatal(err)
				}
				oracle.Remove(id)
				delete(live, id)
			}
			if step%5 == 4 {
				check(fmt.Sprintf("step %d", step))
			}
		}
		check("final")
	}
}

func anyOf(rng *rand.Rand, set map[uint32]bool) uint32 {
	ids := make([]uint32, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.Intn(len(ids))]
}

func keysOf(set map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
