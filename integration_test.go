package zerber_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// TestHTTPClusterEndToEnd exercises the full multi-process deployment
// shape over real HTTP: index servers behind transport.NewHTTPHandler,
// a peer and a client connected via transport.DialHTTP, shared auth key,
// group churn, update, and delete. The server count is tiered: 3 under
// -short, 5 by default, 9 in the nightly full tier — k stays 2, so the
// wider clusters exercise share fan-out and first-k retrieval at size.
func TestHTTPClusterEndToEnd(t *testing.T) {
	numServers := tierCount(3, 5, 9)
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	groups.Add("bob", 2)

	dfs := map[string]int{
		"martha": 9, "imclone": 7, "layoff": 5, "budget": 3, "merger": 1,
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.DFM, M: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	voc := vocab.NewFromTerms(table.ListedTerms())

	// Real HTTP servers (sharing the verification key, each with its
	// own x-coordinate), as in the cmd/zerber-server deployment.
	var apis []transport.API
	for i := 0; i < numServers; i++ {
		srv := server.New(server.Config{
			Name: fmt.Sprintf("http-ix%d", i), X: field.Element(i + 1),
			Auth: auth.NewServiceWithKey(svc.Key(), time.Minute), Groups: groups,
		})
		ts := httptest.NewServer(transport.NewHTTPHandler(srv))
		defer ts.Close()
		c, err := transport.DialHTTP(ts.URL, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		apis = append(apis, c)
	}

	p, err := peer.New(peer.Config{
		Name: "http-site", Servers: apis, K: 2, Table: table, Vocab: voc,
		Rand: rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	alice := svc.Issue("alice")
	bob := svc.Issue("bob")

	// Index for two different groups over the wire.
	if err := p.IndexDocument(alice, peer.Document{ID: 1, Content: "martha imclone layoff", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(bob, peer.Document{ID: 2, Content: "martha merger budget", Group: 2}); err != nil {
		t.Fatal(err)
	}

	cl, err := client.New(apis, 2, table, voc)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := cl.Search(alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("alice over HTTP sees %v", res)
	}
	if stats.ServersQueried != 2 {
		t.Errorf("ServersQueried = %d", stats.ServersQueried)
	}

	// Update over HTTP: change one term.
	if err := p.UpdateDocument(alice, peer.Document{ID: 1, Content: "martha imclone budget", Group: 1}); err != nil {
		t.Fatal(err)
	}
	res, _, err = cl.Search(alice, []string{"layoff"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Error("stale term visible after HTTP update")
	}
	res, _, err = cl.Search(alice, []string{"budget"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Error("new term missing after HTTP update")
	}

	// Delete over HTTP.
	if err := p.DeleteDocument(bob, 2); err != nil {
		t.Fatal(err)
	}
	res, _, err = cl.Search(bob, []string{"merger"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Error("deleted document visible over HTTP")
	}
}

// TestHTTPDurableCluster runs the HTTP handler over crash-recoverable
// servers and restarts them mid-test — the complete production shape:
// HTTP transport + disk-engine durability (Sync on, as zerber-server
// -store-engine disk runs it) + Shamir sharing + merging + ACLs.
// Server count tiered like TestHTTPClusterEndToEnd.
func TestHTTPDurableCluster(t *testing.T) {
	numServers := tierCount(3, 3, 7)
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	dfs := map[string]int{"martha": 3, "imclone": 2, "layoff": 1}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	voc := vocab.NewFromTerms(table.ListedTerms())
	dir := t.TempDir()

	open := func(i int) (*store.Disk, *httptest.Server) {
		ds, err := store.OpenDisk(fmt.Sprintf("%s/ix%d.store", dir, i), store.DiskOptions{Sync: true})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{
			Name: fmt.Sprintf("dur-ix%d", i), X: field.Element(i + 1),
			Auth: auth.NewServiceWithKey(svc.Key(), time.Minute), Groups: groups, Store: ds,
		})
		return ds, httptest.NewServer(transport.NewHTTPHandler(srv))
	}

	var apis []transport.API
	var handles []*store.Disk
	var servers []*httptest.Server
	for i := 0; i < numServers; i++ {
		ds, ts := open(i)
		handles = append(handles, ds)
		servers = append(servers, ts)
		c, err := transport.DialHTTP(ts.URL, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		apis = append(apis, c)
	}

	alice := svc.Issue("alice")
	p, err := peer.New(peer.Config{
		Name: "site", Servers: apis, K: 2, Table: table, Vocab: voc,
		Rand: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(alice, peer.Document{ID: 1, Content: "martha imclone", Group: 1}); err != nil {
		t.Fatal(err)
	}

	// Crash every server and restart from its store directory.
	for i := range servers {
		servers[i].Close()
		if err := handles[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	apis = apis[:0]
	for i := 0; i < numServers; i++ {
		ds, ts := open(i)
		defer ts.Close()
		defer ds.Close()
		if ds.TotalElements() == 0 {
			t.Fatalf("server %d recovered nothing", i)
		}
		c, err := transport.DialHTTP(ts.URL, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		apis = append(apis, c)
	}
	cl, err := client.New(apis, 2, table, voc)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := cl.Search(alice, []string{"imclone"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("post-crash HTTP search = %v", res)
	}
}
