// DHT: the §3 future-work extension — r-confidential indexing over a
// DHT-based infrastructure, where each physical node stores only a
// fraction of the index.
//
//	go run ./examples/dht
//
// Layout: k=2 secret sharing means two share slots; each slot is one
// index server whose storage engine is a consistent-hashing ring of
// physical node stores. Clients and peers talk to the slot servers
// exactly as to any index servers; the routing, node joins, and data
// migration are invisible to them.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/dht"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

func main() {
	svc, err := auth.NewService(time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)

	// Corpus statistics and public structures.
	dfs := map[string]int{}
	for i := 0; i < 200; i++ {
		dfs[fmt.Sprintf("term%03d", i)] = 200 - i
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		log.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.DFM, M: 32, R: 64})
	if err != nil {
		log.Fatal(err)
	}
	voc := vocab.NewFromTerms(table.ListedTerms())

	// Two share slots (k=2), three physical nodes each, one index
	// server per slot.
	var slots []*dht.Slot
	var apis []transport.API
	for s := 0; s < 2; s++ {
		slot := dht.NewSlot("node0", store.NewSharded(0))
		for n := 1; n < 3; n++ {
			if err := slot.AddNode(fmt.Sprintf("node%d", n), store.NewSharded(0)); err != nil {
				log.Fatal(err)
			}
		}
		slots = append(slots, slot)
		apis = append(apis, server.New(server.Config{
			Name: fmt.Sprintf("slot%d", s), X: field.Element(s + 1), Auth: svc, Groups: groups, Store: slot,
		}))
	}

	// Index documents through the DHT (the peer cannot tell).
	p, err := peer.New(peer.Config{
		Name: "site", Servers: apis, K: 2, Table: table, Vocab: voc,
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		log.Fatal(err)
	}
	tok := svc.Issue("alice")
	batch := p.NewBatch()
	for d := 1; d <= 30; d++ {
		content := ""
		for i := d % 5; i < 200; i += 5 {
			content += fmt.Sprintf("term%03d ", i)
		}
		if err := batch.Add(peer.Document{ID: uint32(d), Content: content, Group: 1}); err != nil {
			log.Fatal(err)
		}
	}
	if err := batch.Flush(tok); err != nil {
		log.Fatal(err)
	}

	show := func(header string) {
		fmt.Println(header)
		for si, slot := range slots {
			distb := slot.ListDistribution()
			names := make([]string, 0, len(distb))
			for n := range distb {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Printf("  slot %d (x=%d): ", si, si+1)
			for _, n := range names {
				fmt.Printf("%s=%d lists  ", n, distb[n])
			}
			fmt.Println()
		}
	}
	show("--- index fractions per physical node ---")

	cl, err := client.New(apis, 2, table, voc)
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := cl.Search(tok, []string{"term000"}, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsearch over the DHT: %d documents match term000\n\n", len(res))

	// A node joins slot 0: lists it now owns migrate automatically.
	if err := slots[0].AddNode("node3", store.NewSharded(0)); err != nil {
		log.Fatal(err)
	}
	show("--- after node3 joins slot 0 (lists migrated) ---")
	res2, _, err := cl.Search(tok, []string{"term000"}, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsearch still returns %d documents\n\n", len(res2))

	// A node leaves: its lists migrate to the survivors.
	if err := slots[0].RemoveNode("node1"); err != nil {
		log.Fatal(err)
	}
	show("--- after node1 leaves slot 0 ---")
	res3, _, err := cl.Search(tok, []string{"term000"}, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsearch still returns %d documents\n", len(res3))
}
