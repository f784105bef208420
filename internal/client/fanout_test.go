package client_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
	"zerber/internal/transport"
)

// blockingAPI hangs every lookup until its context is cancelled, then
// reports the cancellation on done — a server that never answers.
type blockingAPI struct {
	x    uint64
	done chan struct{}
	once sync.Once
}

func (b *blockingAPI) XCoord() field.Element { return field.New(b.x) }
func (b *blockingAPI) Insert(context.Context, auth.Token, []transport.InsertOp) error {
	return errors.New("read-only fake")
}
func (b *blockingAPI) Delete(context.Context, auth.Token, []transport.DeleteOp) error {
	return errors.New("read-only fake")
}
func (b *blockingAPI) Apply(context.Context, auth.Token, transport.OpID, []transport.InsertOp, []transport.DeleteOp) error {
	return errors.New("read-only fake")
}
func (b *blockingAPI) GetPostingLists(ctx context.Context, _ auth.Token, _ []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	<-ctx.Done()
	b.once.Do(func() { close(b.done) })
	return nil, ctx.Err()
}

func (b *blockingAPI) GetPostingBlocks(ctx context.Context, _ auth.Token, _ merging.ListID, _, _ int) (transport.BlockPage, error) {
	<-ctx.Done()
	b.once.Do(func() { close(b.done) })
	return transport.BlockPage{}, ctx.Err()
}

func TestFanoutSurvivesFailuresMidFanout(t *testing.T) {
	// Dead servers interleaved with healthy ones: the parallel fan-out
	// must replace each failure with the next untried server and still
	// gather k=2 responses.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})

	apis := []transport.API{failingAPI{x: 7}, e.apis[0], failingAPI{x: 8}, e.apis[1], e.apis[2]}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := c.Search(alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("results with two dead servers: %v", res)
	}
	if stats.ServersQueried != 2 {
		t.Errorf("ServersQueried = %d, want 2", stats.ServersQueried)
	}
}

func TestFanoutFewerThanKReachable(t *testing.T) {
	// Only one healthy server but k=2: the fan-out must exhaust every
	// server and report ErrNotEnough with the underlying cause.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	apis := []transport.API{failingAPI{x: 7}, failingAPI{x: 8}, e.apis[0], failingAPI{x: 9}}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Retrieve(alice, []string{"martha"})
	if !errors.Is(err, client.ErrNotEnough) {
		t.Fatalf("got %v, want ErrNotEnough", err)
	}
}

func TestFanoutCancelsSlowServer(t *testing.T) {
	// A hung server must be cancelled as soon as the first k fast
	// servers answer, not held until some timeout.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})

	slow := &blockingAPI{x: 77, done: make(chan struct{})}
	apis := []transport.API{slow, e.apis[0], e.apis[1]}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := c.Search(alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	if stats.ServersQueried != 2 {
		t.Errorf("ServersQueried = %d, want 2", stats.ServersQueried)
	}
	select {
	case <-slow.done:
	case <-time.After(5 * time.Second):
		t.Fatal("slow server was never cancelled")
	}
}

func TestRetrieveContextCancellation(t *testing.T) {
	// Every server hangs: the caller's deadline must abort the query.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	apis := []transport.API{
		&blockingAPI{x: 71, done: make(chan struct{})},
		&blockingAPI{x: 72, done: make(chan struct{})},
	}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err = c.RetrieveContext(ctx, alice, []string{"martha"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

func TestHedgeLaunchesBackupServers(t *testing.T) {
	// Fanout=1 with a hung first server: without hedging the query
	// would block forever; the hedge timer must put the remaining
	// servers in flight and complete the query.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})

	slow := &blockingAPI{x: 77, done: make(chan struct{})}
	apis := []transport.API{slow, e.apis[0], e.apis[1]}
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTuning(client.Tuning{Fanout: 1, HedgeDelay: 5 * time.Millisecond})
	res, stats, err := c.Search(alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || stats.ServersQueried != 2 {
		t.Fatalf("hedged search: res=%v stats=%+v", res, stats)
	}
}

func TestSequentialTuningMatchesParallel(t *testing.T) {
	// Fanout=1 is the pre-concurrency client; its results and stats
	// must be identical to the parallel defaults.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 1, Content: "martha imclone budget", Group: 1},
		peer.Document{ID: 2, Content: "martha layoff", Group: 1},
		peer.Document{ID: 3, Content: "imclone chemical process", Group: 1},
	)
	par := e.client(t)
	seq := e.client(t)
	seq.SetTuning(client.Tuning{Fanout: 1})

	for _, q := range [][]string{{"martha"}, {"martha", "imclone"}, {"budget", "chemical"}} {
		lp, sp, err := par.Retrieve(alice, q)
		if err != nil {
			t.Fatal(err)
		}
		ls, ss, err := seq.Retrieve(alice, q)
		if err != nil {
			t.Fatal(err)
		}
		// Each client has its own basis cache, and which k of the n
		// servers answer the parallel one first is a race: whether a
		// lookup hits depends on it, how many lookups a query makes does
		// not. Fold the split into the sum and compare everything.
		sp.ReconstructorHits, sp.ReconstructorMisses = sp.ReconstructorHits+sp.ReconstructorMisses, 0
		ss.ReconstructorHits, ss.ReconstructorMisses = ss.ReconstructorHits+ss.ReconstructorMisses, 0
		if sp != ss {
			t.Errorf("query %v: stats diverge: parallel %+v, sequential %+v", q, sp, ss)
		}
		if fmt.Sprint(lp) != fmt.Sprint(ls) {
			t.Errorf("query %v: postings diverge:\nparallel   %v\nsequential %v", q, lp, ls)
		}
	}
}

func TestRetrieveDeterministicOrder(t *testing.T) {
	// Per-term posting order must be reproducible across runs whichever
	// servers answer first.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	docs := make([]peer.Document, 0, 30)
	for i := uint32(1); i <= 30; i++ {
		docs = append(docs, peer.Document{ID: i, Content: "martha imclone layoff", Group: 1})
	}
	e.index(t, alice, docs...)
	c := e.client(t)

	first, _, err := c.Retrieve(alice, []string{"martha", "imclone"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, _, err := c.Retrieve(alice, []string{"martha", "imclone"})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("run %d: posting order changed:\nfirst %v\nagain %v", i, first, again)
		}
	}
}

func TestConcurrentRetrieve(t *testing.T) {
	// Hammer one shared client from many goroutines; run under -race in
	// CI to catch data races in the fan-out, the join and the basis cache.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 1, Content: "martha imclone", Group: 1},
		peer.Document{ID: 2, Content: "martha budget quarterly", Group: 1},
		peer.Document{ID: 3, Content: "layoff merger", Group: 1},
	)
	c := e.client(t)
	queries := [][]string{{"martha"}, {"imclone", "budget"}, {"layoff"}, {"merger", "martha"}}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(g+i)%len(queries)]
				if _, _, err := c.Retrieve(alice, q); err != nil {
					errs <- fmt.Errorf("query %v: %w", q, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
