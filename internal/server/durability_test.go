package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/transport/transporttest"
	"zerber/internal/vocab"
	"zerber/internal/wal"
)

// The durable configuration is a server on the disk engine with Sync on
// (what zerber-server -store-engine disk runs): the store directory is
// the only log. These tests restart servers on it.

type durableEnv struct {
	dir    string
	svc    *auth.Service
	groups *auth.GroupTable
	table  *merging.Table
	voc    *vocab.Vocabulary
}

func newDurableEnv(t *testing.T) *durableEnv {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("alice", 1)
	dfs := map[string]int{"martha": 5, "imclone": 4, "layoff": 3, "budget": 2, "merger": 1}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &durableEnv{
		dir:    t.TempDir(),
		svc:    svc,
		groups: groups,
		table:  table,
		voc:    vocab.NewFromTerms(table.ListedTerms()),
	}
}

func (e *durableEnv) storeDir(i int) string {
	return filepath.Join(e.dir, fmt.Sprintf("ix%d.store", i))
}

// open starts server i on its store directory, replaying what is there.
func (e *durableEnv) open(t *testing.T, i int) (*server.Server, *store.Disk) {
	t.Helper()
	d, err := store.OpenDisk(e.storeDir(i), store.DiskOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return server.New(server.Config{
		Name: fmt.Sprintf("dx%d", i), X: field.Element(i + 1), Auth: e.svc, Groups: e.groups, Store: d,
	}), d
}

func sh(gid uint64, y uint64) posting.EncryptedShare {
	return posting.EncryptedShare{GlobalID: posting.GlobalID(gid), Group: 1, Y: field.New(y)}
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	e := newDurableEnv(t)
	tok := e.svc.Issue("alice")

	// Phase 1: a 3-server durable cluster indexes documents, then
	// "crashes": the servers are dropped without closing their stores,
	// so nothing but the per-Apply fsync has made the data durable.
	var apis []transport.API
	var servers []*server.Server
	for i := 0; i < 3; i++ {
		srv, _ := e.open(t, i)
		servers = append(servers, srv)
		apis = append(apis, srv)
	}
	p, err := peer.New(peer.Config{
		Name: "site", Servers: apis, K: 2, Table: e.table, Vocab: e.voc,
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(tok, peer.Document{ID: 1, Content: "martha imclone layoff", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(tok, peer.Document{ID: 2, Content: "budget merger", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.DeleteDocument(tok, 2); err != nil {
		t.Fatal(err)
	}
	wantElements := servers[0].TotalElements()
	if wantElements == 0 {
		t.Fatal("nothing indexed")
	}

	// Phase 2: restart on the directories; state and search must be intact.
	apis = apis[:0]
	for i := 0; i < 3; i++ {
		srv, _ := e.open(t, i)
		if got := srv.TotalElements(); got != wantElements {
			t.Fatalf("server %d has %d elements after recovery, want %d", i, got, wantElements)
		}
		apis = append(apis, srv)
	}
	cl, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := cl.Search(tok, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("post-recovery search = %v", res)
	}
	res, _, err = cl.Search(tok, []string{"budget"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatal("deleted document resurrected by recovery")
	}
}

func TestTornWriteRecovery(t *testing.T) {
	e := newDurableEnv(t)
	tok := e.svc.Issue("alice")
	ctx := context.Background()
	s, _ := e.open(t, 0)
	if err := transporttest.Insert(ctx, s, tok, []transport.InsertOp{
		{List: 1, Share: sh(1, 100)},
		{List: 1, Share: sh(2, 200)},
	}); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: a frame cut short at the tail of the newest
	// segment.
	segs, err := filepath.Glob(filepath.Join(e.storeDir(0), "seg-*.zseg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments found: %v", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(wal.TornFrame(64)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	revived, _ := e.open(t, 0)
	if revived.TotalElements() != 2 {
		t.Fatalf("recovered %d elements, want 2", revived.TotalElements())
	}
	// The server accepts new writes after torn-tail truncation, and they
	// survive the next restart.
	if err := transporttest.Insert(ctx, revived, tok, []transport.InsertOp{{List: 2, Share: sh(3, 300)}}); err != nil {
		t.Fatal(err)
	}
	again, _ := e.open(t, 0)
	if again.TotalElements() != 3 {
		t.Fatalf("after torn recovery + append: recovered %d elements, want 3", again.TotalElements())
	}
}

func TestUnauthorizedWritesNeverLogged(t *testing.T) {
	e := newDurableEnv(t)
	ctx := context.Background()
	s, d := e.open(t, 0)
	empty := d.Stats().DiskBytes
	bad := auth.Token("garbage")
	if err := transporttest.Insert(ctx, s, bad, []transport.InsertOp{{List: 1, Share: sh(1, 1)}}); err == nil {
		t.Fatal("unauthorized apply succeeded")
	}
	// A cross-group insert is also rejected before anything is written,
	// and takes the authorized half of its batch down with it.
	tok := e.svc.Issue("alice")
	foreign := posting.EncryptedShare{GlobalID: 7, Group: 99, Y: 1}
	err := transporttest.Insert(ctx, s, tok, []transport.InsertOp{{List: 1, Share: sh(2, 2)}, {List: 1, Share: foreign}})
	if !errors.Is(err, server.ErrUnauthorized) {
		t.Fatalf("cross-group apply: %v", err)
	}
	if got := d.Stats().DiskBytes; got != empty {
		t.Fatalf("rejected writes reached the log: %d bytes, %d when empty", got, empty)
	}
	revived, _ := e.open(t, 0)
	if revived.TotalElements() != 0 {
		t.Fatalf("rejected writes leaked into the store: %d elements after reopen", revived.TotalElements())
	}
}

// boundaryStore counts the batch boundaries the server marks on its
// engine, and can fail them.
type boundaryStore struct {
	*store.Disk
	boundaries int
	fail       error
}

func (b *boundaryStore) Sync() error {
	b.boundaries++
	if b.fail != nil {
		return b.fail
	}
	return b.Disk.Sync()
}

// TestApplySyncsOncePerCall pins the durable write path's cost and its
// failure mode: one batch boundary per Apply however many lists and
// store calls the stage spans (store.TestDiskSyncBoundary pins that a
// boundary is one fsync), none for a deduplicated redelivery, and a
// failing sync is Apply's error and leaves the stage unrecorded so the
// retry applies and syncs again.
func TestApplySyncsOncePerCall(t *testing.T) {
	e := newDurableEnv(t)
	tok := e.svc.Issue("alice")
	ctx := context.Background()
	d, err := store.OpenDisk(e.storeDir(0), store.DiskOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	bs := &boundaryStore{Disk: d}
	s := server.New(server.Config{Name: "dx0", X: 1, Auth: e.svc, Groups: e.groups, Store: bs})
	expect := func(what string, boundaries int) {
		t.Helper()
		if bs.boundaries != boundaries {
			t.Fatalf("%s: %d sync boundaries, want %d", what, bs.boundaries, boundaries)
		}
	}

	var inserts []transport.InsertOp
	for lid := merging.ListID(1); lid <= 5; lid++ {
		inserts = append(inserts,
			transport.InsertOp{List: lid, Share: sh(uint64(lid)*10, 1)},
			transport.InsertOp{List: lid, Share: sh(uint64(lid)*10+1, 2)})
	}
	if err := transporttest.Insert(ctx, s, tok, inserts); err != nil {
		t.Fatal(err)
	}
	expect("five-list insert stage", 1)

	op := transport.OpID{ID: 7, Stage: transport.StageDelete}
	deletes := []transport.DeleteOp{{List: 1, ID: 10}, {List: 3, ID: 31}, {List: 5, ID: 50}}
	mixed := []transport.InsertOp{{List: 6, Share: sh(60, 3)}}
	if err := s.Apply(ctx, tok, op, mixed, deletes); err != nil {
		t.Fatal(err)
	}
	expect("mixed stage", 2)
	if err := s.Apply(ctx, tok, op, mixed, deletes); err != nil {
		t.Fatal(err)
	}
	expect("deduplicated redelivery", 2)

	bs.fail = errors.New("injected fsync failure")
	op = transport.OpID{ID: 8, Stage: transport.StageInsert}
	retried := []transport.InsertOp{{List: 7, Share: sh(70, 4)}}
	if err := s.Apply(ctx, tok, op, retried, nil); !errors.Is(err, bs.fail) {
		t.Fatalf("Apply over a failing sync = %v, want the sync error", err)
	}
	expect("failed boundary", 3)
	bs.fail = nil
	if err := s.Apply(ctx, tok, op, retried, nil); err != nil {
		t.Fatal(err)
	}
	expect("retry after the failure", 4)
}
