// Operations: running Zerber in anger — crash recovery from the disk
// store engine's log, exactly-once peer mutations recovered from
// the mutation journal, proactive share resharing, and tamper-detecting
// verified retrieval.
//
//	go run ./examples/operations
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
	"zerber/internal/proactive"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

func main() {
	dir, err := os.MkdirTemp("", "zerber-ops")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	svc, err := auth.NewService(time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)

	dfs := map[string]int{"martha": 5, "imclone": 4, "layoff": 3, "merger": 2, "budget": 1}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		log.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: 2})
	if err != nil {
		log.Fatal(err)
	}
	voc := vocab.NewFromTerms(table.ListedTerms())

	// A durable server is a server on the disk engine with Sync on (what
	// zerber-server -store-engine disk runs): every acknowledged Apply has
	// been fsynced into the store directory, which is the only log.
	disks := make([]*store.Disk, 3)
	open := func(i int) *server.Server {
		d, err := store.OpenDisk(filepath.Join(dir, fmt.Sprintf("ix%d.store", i)), store.DiskOptions{Sync: true})
		if err != nil {
			log.Fatal(err)
		}
		disks[i] = d
		return server.New(server.Config{
			Name: fmt.Sprintf("ix%d", i), X: field.Element(i + 1), Auth: svc, Groups: groups, Store: d,
		})
	}
	closeAll := func() {
		for _, d := range disks {
			d.Close()
		}
	}

	// --- 1. Durable cluster + indexing ------------------------------
	servers := []*server.Server{open(0), open(1), open(2)}
	apis := []transport.API{servers[0], servers[1], servers[2]}
	p, err := peer.New(peer.Config{
		Name: "site", Servers: apis, K: 2, Table: table, Vocab: voc,
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		log.Fatal(err)
	}
	tok := svc.Issue("alice")
	if err := p.IndexDocument(tok, peer.Document{ID: 1, Content: "martha imclone layoff", Group: 1}); err != nil {
		log.Fatal(err)
	}
	if err := p.IndexDocument(tok, peer.Document{ID: 2, Content: "merger budget", Group: 1}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed 2 documents; each server logs its shares (one log file per server)\n")

	// --- 2. Crash and recover ----------------------------------------
	closeAll() // power cut
	servers = []*server.Server{open(0), open(1), open(2)}
	apis = []transport.API{servers[0], servers[1], servers[2]}
	fmt.Printf("after crash: recovered %d/%d/%d elements per server\n",
		servers[0].Store().TotalElements(), servers[1].Store().TotalElements(), servers[2].Store().TotalElements())

	cl, err := client.New(apis, 2, table, voc)
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := cl.Search(tok, []string{"imclone"}, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-recovery search for 'imclone': %d hit(s)\n\n", len(res))

	// --- 2b. Peer crash mid-update: journaled, exactly-once recovery --
	// An update inserts its fresh elements on every server before
	// deleting the superseded ones, and a journaled peer persists the
	// whole operation before the first send. Kill the owner between the
	// two stages, restart it on its journal, and Recover() converges:
	// no orphaned elements, and the new document is indexed exactly once.
	flaky := &failDeleteOnce{API: apis[1]}
	japis := []transport.API{apis[0], flaky, apis[2]}
	jpath := filepath.Join(dir, "site2.journal")
	newSite2 := func() *peer.Peer {
		p2, err := peer.New(peer.Config{
			Name: "site2", Servers: japis, K: 2, Table: table, Vocab: voc,
			Rand: rand.New(rand.NewSource(2)), JournalPath: jpath,
		})
		if err != nil {
			log.Fatal(err)
		}
		return p2
	}
	p2 := newSite2()
	if err := p2.IndexDocument(tok, peer.Document{ID: 10, Content: "merger budget", Group: 1}); err != nil {
		log.Fatal(err)
	}
	err = p2.UpdateDocument(tok, peer.Document{ID: 10, Content: "merger layoff", Group: 1})
	fmt.Printf("update interrupted between stages: %v\n", err)
	fmt.Printf("elements per server mid-crash: %d/%d/%d (old+new generations coexist; nothing lost)\n",
		servers[0].Store().TotalElements(), servers[1].Store().TotalElements(), servers[2].Store().TotalElements())
	p2.Close() // power cut on the owner's machine

	p2 = newSite2()
	fmt.Printf("after restart: %d in-flight mutation journaled\n", p2.PendingOps())
	done, err := p2.Recover(tok)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Recover() completed %d op(s); elements per server: %d/%d/%d (superseded generation gone)\n",
		done,
		servers[0].Store().TotalElements(), servers[1].Store().TotalElements(), servers[2].Store().TotalElements())
	res, _, err = cl.Search(tok, []string{"layoff"}, 10)
	if err != nil {
		log.Fatal(err)
	}
	hits := 0
	for _, r := range res {
		if r.DocID == 10 {
			hits++
		}
	}
	fmt.Printf("search for the updated term finds doc 10 exactly once: %d hit(s)\n\n", hits)
	defer p2.Close()

	// --- 3. Proactive resharing --------------------------------------
	var lid merging.ListID
	for l := range servers[0].Store().ListLengths() {
		lid = l
		break
	}
	stolen := servers[0].Store().Scan(lid, nil) // adversary snapshots server 0 today
	// What the stolen share + a current server-1 share decode to, before
	// and after the refresh.
	xs := []field.Element{servers[0].XCoord(), servers[1].XCoord()}
	decodeMix := func() posting.Element {
		freshByID := map[posting.GlobalID]posting.EncryptedShare{}
		for _, sh := range servers[1].Store().Scan(lid, nil) {
			freshByID[sh.GlobalID] = sh
		}
		elem, err := posting.Decrypt(
			[]posting.EncryptedShare{stolen[0], freshByID[stolen[0].GlobalID]}, xs, 2)
		if err != nil {
			log.Fatal(err)
		}
		return elem
	}
	before := decodeMix()
	n, err := proactive.Reshare(servers, 2, nil)
	if err != nil {
		log.Fatal(err)
	}
	after := decodeMix()
	fmt.Printf("proactive resharing refreshed %d elements\n", n)
	fmt.Printf("stolen+current share decode before refresh: [%v] (real element)\n", before)
	fmt.Printf("stolen+current share decode after  refresh: [%v] (garbage)\n", after)
	res, _, err = cl.Search(tok, []string{"imclone"}, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search still works after resharing: %d hit(s)\n\n", len(res))

	// --- 4. Verified retrieval ---------------------------------------
	if err := cl.EnableVerification(); err != nil {
		log.Fatal(err)
	}
	res, stats, err := cl.Search(tok, []string{"martha"}, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified retrieval: %d hit(s); %d elements cross-checked against two share subsets (k+1=%d servers)\n",
		len(res), stats.ElementsVerified, stats.ServersQueried)
	closeAll()
}

// failDeleteOnce drops the first delete-stage Apply on its way to the
// wrapped server: the outage that interrupts an update exactly between
// its insert and delete stages.
type failDeleteOnce struct {
	transport.API
	failed bool
}

func (f *failDeleteOnce) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	if !f.failed && op.Stage == transport.StageDelete {
		f.failed = true
		return errors.New("injected outage")
	}
	return f.API.Apply(ctx, tok, op, inserts, deletes)
}
