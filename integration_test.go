package zerber_test

import (
	"fmt"
	"math/rand"
	"net"
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

// serveWire serves api on a loopback binary listener at addr ("" picks
// a free port), as cmd/zerber-server does; t.Cleanup closes it, and
// tolerates an earlier Close.
func serveWire(t *testing.T, api transport.API, addr string) *transport.BinaryServer {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bs := transport.ServeBinary(ln, api)
	t.Cleanup(func() { bs.Close() })
	return bs
}

// dialWire dials a binary listener as the CLIs do; t.Cleanup closes the
// client.
func dialWire(t *testing.T, bs *transport.BinaryServer) *transport.BinaryClient {
	t.Helper()
	c, err := transport.DialBinary(bs.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestWireClusterEndToEnd exercises the full multi-process deployment
// shape over real TCP: index servers behind transport.ServeBinary, a
// peer and a client connected via transport.DialBinary, shared auth
// key, group-scoped search, update, and delete. The server count is
// tiered: 3 under -short, 5 by default, 9 in the nightly full tier — k
// stays 2, so the wider clusters exercise share fan-out to every server
// (the peer writes all n) and a k-wide search over the first k of
// them.
func TestWireClusterEndToEnd(t *testing.T) {
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

	// Real servers (sharing the verification key, each with its own
	// x-coordinate), as in the cmd/zerber-server deployment.
	var apis []transport.API
	for i := 0; i < numServers; i++ {
		srv := server.New(server.Config{
			Name: fmt.Sprintf("ix%d", i), X: field.Element(i + 1),
			Auth: auth.NewServiceWithKey(svc.Key(), time.Minute), Groups: groups,
		})
		apis = append(apis, dialWire(t, serveWire(t, srv, "")))
	}

	p, err := peer.New(peer.Config{
		Name: "site", Servers: apis, K: 2, Table: table, Vocab: voc,
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
		t.Fatalf("alice sees %v", res)
	}
	if stats.ServersQueried != 2 {
		t.Errorf("ServersQueried = %d", stats.ServersQueried)
	}

	// Update over the wire: change one term.
	if err := p.UpdateDocument(alice, peer.Document{ID: 1, Content: "martha imclone budget", Group: 1}); err != nil {
		t.Fatal(err)
	}
	res, _, err = cl.Search(alice, []string{"layoff"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Error("stale term visible after update")
	}
	res, _, err = cl.Search(alice, []string{"budget"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Error("new term missing after update")
	}

	// Delete over the wire.
	if err := p.DeleteDocument(bob, 2); err != nil {
		t.Fatal(err)
	}
	res, _, err = cl.Search(bob, []string{"merger"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Error("deleted document visible")
	}
}

// TestWireDurableCluster runs the binary wire over crash-recoverable
// servers and restarts them mid-test — the complete production shape:
// binary transport + disk-engine durability (Sync on, as zerber-server
// -store-engine disk runs it) + Shamir sharing + merging + ACLs. Every
// server comes back on its old address, so the clients dialed before
// the crash carry on through their lazy redial, as they would across a
// real restart. Server count tiered like TestWireClusterEndToEnd.
func TestWireDurableCluster(t *testing.T) {
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

	open := func(i int, addr string) (*store.Disk, *transport.BinaryServer) {
		ds, err := store.OpenDisk(fmt.Sprintf("%s/ix%d.store", dir, i), store.DiskOptions{Sync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		srv := server.New(server.Config{
			Name: fmt.Sprintf("dur-ix%d", i), X: field.Element(i + 1),
			Auth: auth.NewServiceWithKey(svc.Key(), time.Minute), Groups: groups, Store: ds,
		})
		return ds, serveWire(t, srv, addr)
	}

	var apis []transport.API
	var handles []*store.Disk
	var servers []*transport.BinaryServer
	for i := 0; i < numServers; i++ {
		ds, bs := open(i, "")
		handles = append(handles, ds)
		servers = append(servers, bs)
		apis = append(apis, dialWire(t, bs))
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

	// Crash every server and restart it from its store directory, on
	// the address it had.
	for i, bs := range servers {
		addr := bs.Addr().String()
		bs.Close()
		if err := handles[i].Close(); err != nil {
			t.Fatal(err)
		}
		ds, _ := open(i, addr)
		if ds.TotalElements() == 0 {
			t.Fatalf("server %d recovered nothing", i)
		}
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
		t.Fatalf("post-crash search = %v", res)
	}
}
