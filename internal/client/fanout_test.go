package client_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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

// countLookups wraps each server so that the returned counters hold how
// many whole-list lookups each one has received.
func countLookups(apis []transport.API) ([]transport.API, []*atomic.Int32) {
	wrapped := make([]transport.API, len(apis))
	counts := make([]*atomic.Int32, len(apis))
	for i, api := range apis {
		n := new(atomic.Int32)
		counts[i] = n
		wrapped[i] = transport.WithHooks(api, transport.Hooks{Before: func(c transport.Call) error {
			if c.Method == transport.MethodLookup {
				n.Add(1)
			}
			return nil
		}})
	}
	return wrapped, counts
}

func lookupCounts(counts []*atomic.Int32) []int32 {
	out := make([]int32, len(counts))
	for i, n := range counts {
		out[i] = n.Load()
	}
	return out
}

func TestFanoutCancelsSlowServer(t *testing.T) {
	// A hung server first in preference order: the default fan-out asks
	// it and the next server, hedges with the third once the delay
	// passes, answers from the two fast ones, and cancels the hung call
	// at once, not at some timeout.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})

	slow := &blockingAPI{x: 77, done: make(chan struct{})}
	apis, calls := countLookups([]transport.API{slow, e.apis[0], e.apis[1]})
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	// The hedge fires after the initial delay, 10 ms; a second is far
	// beyond it and far short of anything that waits for the hung call.
	// Without a hedge the search would wait for the deadline.
	const bound = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 10*bound)
	defer cancel()
	start := time.Now()
	res, stats, err := c.SearchContext(ctx, alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > bound {
		t.Errorf("search took %v behind a hung server, want under %v", took, bound)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("results = %v", res)
	}
	if stats.ServersQueried != 2 {
		t.Errorf("ServersQueried = %d, want 2", stats.ServersQueried)
	}
	if got := lookupCounts(calls); fmt.Sprint(got) != "[1 1 1]" {
		t.Errorf("lookups per server = %v, want [1 1 1]: two launched, one hedge", got)
	}
	select {
	case <-slow.done:
	case <-time.After(5 * time.Second):
		t.Fatal("slow server was never cancelled")
	}
}

func TestVerifiedFanoutHedgesHungServer(t *testing.T) {
	// Verified retrieval needs k+1 answers, not k+1 particular servers:
	// with a hung server first among n=4 and k=2 it asks servers 0..2,
	// hedges with server 3, and cross-checks the three fast answers.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})

	slow := &blockingAPI{x: 77, done: make(chan struct{})}
	apis, calls := countLookups([]transport.API{slow, e.apis[0], e.apis[1], e.apis[2]})
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableVerification(); err != nil {
		t.Fatal(err)
	}
	// As in TestFanoutCancelsSlowServer: far beyond the 10 ms hedge
	// delay, far short of the deadline an unhedged query would wait for.
	const bound = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 10*bound)
	defer cancel()
	start := time.Now()
	res, stats, err := c.SearchContext(ctx, alice, []string{"martha"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > bound {
		t.Errorf("verified search took %v behind a hung server, want under %v", took, bound)
	}
	if len(res) != 1 || res[0].DocID != 1 {
		t.Fatalf("results = %v", res)
	}
	if stats.ServersQueried != 3 || stats.ElementsVerified == 0 {
		t.Errorf("ServersQueried = %d, ElementsVerified = %d; want 3 and > 0", stats.ServersQueried, stats.ElementsVerified)
	}
	if got := lookupCounts(calls); fmt.Sprint(got) != "[1 1 1 1]" {
		t.Errorf("lookups per server = %v, want [1 1 1 1]: three launched, one hedge", got)
	}
	select {
	case <-slow.done:
	case <-time.After(5 * time.Second):
		t.Fatal("slow server was never cancelled")
	}
}

func TestHungFirstServerDemoted(t *testing.T) {
	// A hung server first in preference order costs the first search the
	// initial hedge delay. The hedge overtakes it, so it moves to the end
	// of the order, and the 19 searches after it ask the two healthy
	// servers first, where each would otherwise wait the delay out again.
	// The median of the 19 is judged: under the race detector one search
	// can stall for a scheduler or collector pause of that order.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})

	slow := &blockingAPI{x: 77, done: make(chan struct{})}
	c, err := client.New([]transport.API{slow, e.apis[0], e.apis[1]}, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	var took []time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		res, _, err := c.Search(alice, []string{"martha"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].DocID != 1 {
			t.Fatalf("search %d: results = %v", i+1, res)
		}
		if i > 0 {
			took = append(took, time.Since(start))
		}
	}
	slices.Sort(took)
	if median := took[len(took)/2]; median >= client.InitialHedgeDelay/4 {
		t.Errorf("searches 2–20 behind a hung first server took %v to %v, median %v; want the median under %v",
			took[0], took[len(took)-1], median, client.InitialHedgeDelay/4)
	}
}

func TestDefaultFanoutAsksK(t *testing.T) {
	// Three healthy servers and k=2: the default asks servers 0 and 1.
	// Server 2 may be asked only by a hedge, which a fresh client arms
	// for the initial delay, never at launch as an n-wide fan-out would.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})

	var start time.Time
	var third atomic.Int64 // when server 2 was asked, in ns after start; 0 if never
	apis, calls := countLookups(e.apis)
	apis[2] = transport.WithHooks(apis[2], transport.Hooks{Before: func(transport.Call) error {
		third.CompareAndSwap(0, int64(time.Since(start)))
		return nil
	}})
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, _, err := c.Retrieve(alice, []string{"martha"}); err != nil {
		t.Fatal(err)
	}
	if got := lookupCounts(calls); got[0] != 1 || got[1] != 1 {
		t.Errorf("lookups per server = %v, want servers 0 and 1 asked once", got)
	}
	if at := time.Duration(third.Load()); at != 0 && at < client.InitialHedgeDelay {
		t.Errorf("server 2 asked %v after the start, before the %v hedge delay", at, client.InitialHedgeDelay)
	}
}

func TestExplicitFanoutNeverHedges(t *testing.T) {
	// The servers of TestFanoutCancelsSlowServer behind an explicit
	// width of 2: the fixed width asks servers 0 and 1 and waits for the
	// hung one, so only the caller's deadline ends the query, and the
	// third server is never asked.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})

	slow := &blockingAPI{x: 77, done: make(chan struct{})}
	apis, calls := countLookups([]transport.API{slow, e.apis[0], e.apis[1]})
	c, err := client.New(apis, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTuning(client.Tuning{Fanout: 2})
	// Five times the default's initial hedge delay.
	ctx, cancel := context.WithTimeout(context.Background(), 5*client.InitialHedgeDelay)
	defer cancel()
	if _, _, err := c.RetrieveContext(ctx, alice, []string{"martha"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	<-slow.done
	if got := lookupCounts(calls); fmt.Sprint(got) != "[1 1 0]" {
		t.Errorf("lookups per server = %v, want [1 1 0]: no hedge", got)
	}
}

func TestHedgeDelayEstimator(t *testing.T) {
	// RFC 6298's arithmetic, in microseconds: no sample leaves the
	// initial delay; the first sets srtt and rttvar = srtt/2; each next
	// moves srtt by 1/8 and rttvar by 1/4 of the deviation; the delay
	// never drops below the floor.
	var fast client.RTT
	fast.Sample(100 * time.Microsecond) // srtt 100, rttvar 50: 300 µs
	if d := fast.HedgeDelay(); d != client.MinHedgeDelay {
		t.Fatalf("delay after a 100µs sample = %v, want the floor %v", d, client.MinHedgeDelay)
	}
	var est client.RTT
	if d := est.HedgeDelay(); d != client.InitialHedgeDelay {
		t.Fatalf("unsampled delay = %v, want the initial %v", d, client.InitialHedgeDelay)
	}
	for _, step := range []struct {
		sample, want time.Duration
	}{
		{time.Millisecond, 3000 * time.Microsecond},        // srtt 1000, rttvar 500
		{2 * time.Millisecond, 3625 * time.Microsecond},    // srtt (7000+2000)/8 = 1125, rttvar (1500+1000)/4 = 625
		{1125 * time.Microsecond, 2997 * time.Microsecond}, // srtt 1125, rttvar 1875/4 = 468
		{0, 3512 * time.Microsecond},                       // counts as 1 µs: srtt 7876/8 = 984, rttvar (1404+1124)/4 = 632
	} {
		est.Sample(step.sample)
		if d := est.HedgeDelay(); d != step.want {
			t.Fatalf("after a %v sample: delay %v, want %v", step.sample, d, step.want)
		}
	}

	// Karn's rule on a client. A fan-out with server 0 hung can only
	// finish through a hedge, and leaves the estimate unsampled.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice, peer.Document{ID: 1, Content: "martha", Group: 1})
	slow := &blockingAPI{x: 77, done: make(chan struct{})}
	c, err := client.New([]transport.API{slow, e.apis[0], e.apis[1]}, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := c.RetrieveContext(ctx, alice, []string{"martha"}); err != nil {
		t.Fatal(err)
	}
	if d := c.WholeListHedgeDelay(); d != client.InitialHedgeDelay {
		t.Errorf("after a hedged fan-out: delay %v, want the initial %v (not sampled)", d, client.InitialHedgeDelay)
	}
	// A fan-out whose failed call was replaced is not sampled either:
	// its latency holds the failure's as well as a round trip.
	c, err = client.New([]transport.API{failingAPI{x: 7}, e.apis[0], e.apis[1]}, 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Retrieve(alice, []string{"martha"}); err != nil {
		t.Fatal(err)
	}
	if d := c.WholeListHedgeDelay(); d != client.InitialHedgeDelay {
		t.Errorf("after a replaced failure: delay %v, want the initial %v (not sampled)", d, client.InitialHedgeDelay)
	}
	// With n = k nothing is left to hedge with, so every fan-out is
	// sampled; a delay of 3 × sample cannot be the initial 10 ms.
	c, err = client.New(e.apis[:2], 2, e.table, e.voc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Retrieve(alice, []string{"martha"}); err != nil {
		t.Fatal(err)
	}
	if d := c.WholeListHedgeDelay(); d == client.InitialHedgeDelay {
		t.Errorf("after an unhedged fan-out: delay still the initial %v", d)
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

func TestSequentialTuningMatchesParallel(t *testing.T) {
	// Fanout=1 is the pre-concurrency client, the default asks k servers
	// and hedges, and Fanout=n races all of them: results and stats must
	// be identical under all three.
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 1, Content: "martha imclone budget", Group: 1},
		peer.Document{ID: 2, Content: "martha layoff", Group: 1},
		peer.Document{ID: 3, Content: "imclone chemical process", Group: 1},
	)
	seq := e.client(t)
	seq.SetTuning(client.Tuning{Fanout: 1})
	def := e.client(t)
	all := e.client(t)
	all.SetTuning(client.Tuning{Fanout: len(e.apis)})

	for _, q := range [][]string{{"martha"}, {"martha", "imclone"}, {"budget", "chemical"}} {
		ls, ss, err := seq.Retrieve(alice, q)
		if err != nil {
			t.Fatal(err)
		}
		// Each client has its own basis cache, and which k of the n
		// servers answer a parallel one is a race (a hedge for the
		// default, the first k to answer for Fanout=n): whether a lookup
		// hits depends on it, how many lookups a query makes does not.
		// Fold the split into the sum and compare everything.
		ss.ReconstructorHits, ss.ReconstructorMisses = ss.ReconstructorHits+ss.ReconstructorMisses, 0
		for name, c := range map[string]*client.Client{"default": def, "Fanout=n": all} {
			lp, sp, err := c.Retrieve(alice, q)
			if err != nil {
				t.Fatal(err)
			}
			sp.ReconstructorHits, sp.ReconstructorMisses = sp.ReconstructorHits+sp.ReconstructorMisses, 0
			if sp != ss {
				t.Errorf("query %v: stats diverge: %s %+v, sequential %+v", q, name, sp, ss)
			}
			if fmt.Sprint(lp) != fmt.Sprint(ls) {
				t.Errorf("query %v: postings diverge:\n%s %v\nsequential %v", q, name, lp, ls)
			}
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
