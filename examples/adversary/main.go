// Adversary: simulates the paper's threat model (§4, §7.1). Alice takes
// over one of the three index servers and tries each attack the paper
// enumerates; the example shows what she sees and verifies the
// r-confidentiality bound empirically.
//
//	go run ./examples/adversary
package main

import (
	"fmt"
	"log"
	"sort"

	"zerber"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/shamir"
)

func main() {
	// Corpus statistics = the adversary's background knowledge B.
	docFreqs := map[string]int{
		"report": 40, "meeting": 35, "budget": 30, "status": 25,
		"project": 20, "team": 15, "merger": 6, "suitor": 3,
		"hesselhofer": 1, // the rare name Alice wants to confirm
	}
	cluster, err := zerber.NewCluster(docFreqs, zerber.Options{
		N: 3, K: 2, Heuristic: zerber.UDM, M: 3, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster.AddUser("owner", 1)
	tok := cluster.IssueToken("owner")
	site, err := cluster.NewPeer("site", 0)
	if err != nil {
		log.Fatal(err)
	}

	// Index documents; one contains the sensitive rare term.
	batch := site.NewBatch()
	contents := []string{
		"report meeting budget status",
		"project team status report",
		"merger suitor meeting",
		"budget report project hesselhofer", // the secret
		"team meeting status budget report",
	}
	for i, text := range contents {
		if err := batch.Add(peer.Document{ID: uint32(i + 1), Content: text, Group: 1}); err != nil {
			log.Fatal(err)
		}
	}
	if err := batch.Flush(tok); err != nil {
		log.Fatal(err)
	}

	// ---- Alice compromises server 0. --------------------------------
	compromised := cluster.Servers()[0]
	fmt.Println("Alice has root on", compromised.Name())

	// Attack 1 (§4): learn per-term document frequencies. She sees only
	// merged list lengths.
	fmt.Println("\n[attack 1] posting list lengths visible to Alice:")
	lengths := compromised.Store().ListLengths()
	var lids []int
	for lid := range lengths {
		lids = append(lids, int(lid))
	}
	sort.Ints(lids)
	for _, lid := range lids {
		fmt.Printf("  merged list %d: %d elements (sum over ALL merged terms)\n", lid, lengths[merging.ListID(lid)])
	}
	fmt.Println("  -> no per-term document frequency is recoverable: each list mixes several terms")

	// Attack 2 (§4): confirm "hesselhofer" is indexed. The mapping table
	// tells her which list the term WOULD be in, but the elements are
	// secret-shared and the list also carries other terms' elements.
	table := cluster.Table()
	lid := table.ListOf("hesselhofer")
	fmt.Printf("\n[attack 2] 'hesselhofer' maps to list %d; Alice inspects its %d shares:\n",
		lid, len(compromised.Store().Scan(lid, nil)))
	for i, sh := range compromised.Store().Scan(lid, nil) {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  element %x: share value %d (uniform in Z_p)\n", sh.GlobalID, sh.Y.Uint64())
	}

	// Quantify her gain with the r-confidentiality bound (Definition 1).
	dist, err := confidential.NewDistribution(docFreqs)
	if err != nil {
		log.Fatal(err)
	}
	members := table.Members(dist.TermsByProbability())
	var mass float64
	for _, term := range members[lid] {
		mass += dist.P(term)
	}
	prior := dist.P("hesselhofer")
	posterior := prior / mass
	fmt.Printf("  prior P(element is 'hesselhofer') from background B: %.4f\n", prior)
	fmt.Printf("  posterior given the merged list:                     %.4f\n", posterior)
	fmt.Printf("  amplification %.2f <= table r-value %.2f  (Definition 1 holds)\n",
		posterior/prior, table.RValue())

	// Attack 3 (§5.1): reconstruct a posting element from one server's
	// share alone — information-theoretically impossible: every candidate
	// secret is consistent with the share.
	sh := compromised.Store().Scan(lid, nil)[0]
	x := compromised.XCoord()
	fmt.Println("\n[attack 3] single-share reconstruction:")
	for _, guess := range []uint64{0, 424242, 1 << 59} {
		slope := field.Div(field.Sub(sh.Y, field.New(guess)), x)
		poly := field.Poly{field.New(guess), slope}
		fmt.Printf("  candidate secret %d: consistent witness polynomial exists (f(%d)=%d)\n",
			guess, x, poly.Eval(x).Uint64())
	}
	fmt.Println("  -> the share rules out NOTHING; k=2 shares from distinct servers are required")

	// Defense in depth (§5.1): proactive resharing makes Alice's stolen
	// shares useless even if she later compromises a second server.
	fmt.Println("\n[defense] proactive resharing:")
	xs := []field.Element{1, 2, 3}
	secret := field.Element(777)
	shares, err := shamir.Split(secret, 2, xs, nil)
	if err != nil {
		log.Fatal(err)
	}
	stolen := shares[0]
	// The servers add a fresh sharing of zero to their shares: the secret
	// stays, every share changes.
	deltas, err := shamir.Split(0, 2, xs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fresh := make([]shamir.Share, len(shares))
	for i, s := range shares {
		fresh[i] = shamir.Share{X: s.X, Y: field.Add(s.Y, deltas[i].Y)}
	}
	wrong, err := shamir.Reconstruct([]shamir.Share{stolen, fresh[1]}, 2)
	if err != nil {
		log.Fatal(err)
	}
	right, err := shamir.Reconstruct([]shamir.Share{fresh[0], fresh[1]}, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  stolen+fresh shares -> %d (garbage); fresh+fresh -> %d (correct)\n",
		wrong.Uint64(), right.Uint64())
}
