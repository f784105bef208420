package zerber_test

import (
	"fmt"
	"math/rand"
	"testing"

	"zerber"
	"zerber/internal/client"
	"zerber/internal/peer"
	"zerber/internal/sim"
)

// TestTopKMatchesPlainIndex is the end-to-end property test of the
// early-terminating retrieval protocol: on randomized corpora,
// memberships, and mutation scripts, a top-k search must return
// exactly the scored top k of the trusted plain-index oracle — same
// documents, same frequency-sum scores, same tie order — for every
// user, query shape, and cut, even with a tiny block size forcing the
// TA loop through many rounds. Early termination must be invisible in
// the answer.
func TestTopKMatchesPlainIndex(t *testing.T) {
	vocabulary := []string{
		"martha", "imclone", "layoff", "merger", "budget", "meeting",
		"status", "compound", "process", "suitor", "review", "draft",
	}
	users := []zerber.UserID{"u0", "u1", "u2"}
	numGroups := 3

	trials := tierCount(2, 4, 15)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(4200 + trial)))

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

		site, err := c.NewPeer(fmt.Sprintf("topk-site%d", trial), int64(trial+1))
		if err != nil {
			t.Fatal(err)
		}
		searcher, err := client.New(c.APIs(), c.K(), c.Table(), c.Vocab())
		if err != nil {
			t.Fatal(err)
		}
		searcher.SetTuning(client.Tuning{BlockSize: 1 + trial%3})

		live := map[uint32]bool{}
		randDoc := func(id uint32) peer.Document {
			// Repeated draws give documents term frequencies above 1, so
			// ranking exercises distinct impact buckets, not just presence.
			n := 2 + rng.Intn(10)
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
				for _, k := range []int{1, 3, 1000} {
					got, stats, err := searcher.SearchTopK(tok, query, k)
					if err != nil {
						t.Fatalf("trial %d %s: top-k search: %v", trial, step, err)
					}
					want := oracle.ExpectedTopK(u, query, k)
					if len(got) != len(want) {
						t.Fatalf("trial %d %s: user %s query %v k=%d: %d results, oracle %d",
							trial, step, u, query, k, len(got), len(want))
					}
					for i := range got {
						if got[i].DocID != want[i].DocID || got[i].Score != want[i].Score {
							t.Fatalf("trial %d %s: user %s query %v k=%d rank %d: doc %d score %v, oracle doc %d score %v",
								trial, step, u, query, k, i, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
						}
					}
					if len(got) > 0 && stats.TA.Depth == 0 {
						t.Fatalf("trial %d %s: TA stats not recorded: %+v", trial, step, stats)
					}
				}
			}
		}

		nextID := uint32(1)
		for step := 0; step < 20; step++ {
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
				doc.Group = g
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
