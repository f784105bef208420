package zerber_test

import (
	"fmt"
	"log"

	"zerber"
	"zerber/internal/peer"
)

// ExampleCluster shows the complete Zerber lifecycle: build a cluster
// from corpus statistics, manage group membership, index a batch of
// documents, and run a ranked search with snippets.
func ExampleCluster() {
	docFreqs := map[string]int{
		"the": 50, "budget": 20, "meeting": 15, "martha": 8, "imclone": 4,
	}
	cluster, err := zerber.NewCluster(docFreqs, zerber.Options{N: 3, K: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	cluster.AddUser("alice", 1)
	tok := cluster.IssueToken("alice")

	site, err := cluster.NewPeer("laptop", 7)
	if err != nil {
		log.Fatal(err)
	}
	// One batch flush indexes several documents with their elements
	// shuffled together, hiding which elements belong to one document.
	batch := site.NewBatch()
	for _, d := range []peer.Document{
		{ID: 1, Name: "memo.eml", Group: 1, Content: "Martha sold ImClone before the budget meeting."},
		{ID: 2, Name: "q3.doc", Group: 1, Content: "The budget meeting moved to Thursday."},
	} {
		if err := batch.Add(d); err != nil {
			log.Fatal(err)
		}
	}
	if err := batch.Flush(tok); err != nil {
		log.Fatal(err)
	}

	s, err := cluster.Searcher()
	if err != nil {
		log.Fatal(err)
	}
	results, err := s.Search(tok, []string{"imclone"}, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d result(s); doc %d hosted by %s\n", len(results), results[0].DocID, results[0].Peer)
	fmt.Println(results[0].Snippet)
	// Output:
	// 1 result(s); doc 1 hosted by laptop
	// Martha sold ImClone before the budget meeting.
}

// ExampleCluster_revocation shows the no-key-management revocation
// story: removing a user from the group table is all it takes.
func ExampleCluster_revocation() {
	cluster, err := zerber.NewCluster(map[string]int{"merger": 3, "budget": 2}, zerber.Options{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	cluster.AddUser("bob", 1)
	tok := cluster.IssueToken("bob")
	site, err := cluster.NewPeer("site", 8)
	if err != nil {
		log.Fatal(err)
	}
	if err := site.IndexDocument(tok, peer.Document{ID: 1, Content: "merger budget", Group: 1}); err != nil {
		log.Fatal(err)
	}
	s, err := cluster.Searcher()
	if err != nil {
		log.Fatal(err)
	}

	before, _ := s.Search(tok, []string{"merger"}, 10)
	cluster.RemoveUser("bob", 1) // no re-encryption, no key rotation
	after, _ := s.Search(tok, []string{"merger"}, 10)
	fmt.Printf("before revocation: %d result(s); after: %d\n", len(before), len(after))
	// Output: before revocation: 1 result(s); after: 0
}
