package peer

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/store"
	"zerber/internal/transport"
)

// The mutation engine sends a stage to all servers at once. These tests
// pin what that must not change: the barrier between the stages, and
// recovery from the ack states only concurrent sends can leave behind.

// stageEvent is one Apply reaching a server (done false) or returning
// from it (done true).
type stageEvent struct {
	stage  uint8
	server int
	done   bool
}

// stageLog records, in order, what reached the servers of a cluster.
type stageLog struct {
	mu     sync.Mutex
	events []stageEvent
}

func (l *stageLog) add(e stageEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// arrivals counts the logged Applies of a stage that reached a server.
func (l *stageLog) arrivals(stage uint8) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.stage == stage && !e.done {
			n++
		}
	}
	return n
}

// loggedAPI logs every Apply as it arrives and as it returns. An insert
// stage announces itself on arrived and then waits for gate, if there is
// one.
type loggedAPI struct {
	transport.API
	server  int
	log     *stageLog
	gate    <-chan struct{}
	arrived chan<- int
}

func (a *loggedAPI) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	a.log.add(stageEvent{stage: op.Stage, server: a.server})
	if op.Stage == transport.StageInsert {
		a.arrived <- a.server
		if a.gate != nil {
			<-a.gate
		}
	}
	err := a.API.Apply(ctx, tok, op, inserts, deletes)
	a.log.add(stageEvent{stage: op.Stage, server: a.server, done: true})
	return err
}

// TestDeleteStageWaitsForEveryInsertAck holds one server's insert Apply
// back while the other two answer theirs: no delete may reach any
// server, the two that acknowledged included, until the third is
// released and has acknowledged too.
func TestDeleteStageWaitsForEveryInsertAck(t *testing.T) {
	tc := newCluster(t, 3, corpusTerms)
	tc.groups.Add("alice", 1)
	tok := tc.svc.Issue("alice")
	const slow = 1
	var (
		log     stageLog
		gate    = make(chan struct{})
		arrived = make(chan int, 3) // one insert stage a server
		apis    = make([]transport.API, 3)
	)
	for i := range apis {
		api := &loggedAPI{API: tc.apis[i], server: i, log: &log, arrived: arrived}
		if i == slow {
			api.gate = gate
		}
		apis[i] = api
	}
	p, err := New(Config{Name: "site", Servers: apis, K: 2, Table: tc.table, Vocab: tc.voc, Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	// The first version has nothing to delete; its insert stage needs
	// the gate open all the same.
	indexed := make(chan error, 1)
	go func() { indexed <- p.IndexDocument(tok, Document{ID: 1, Content: "martha imclone", Group: 1}) }()
	for i := 0; i < 3; i++ {
		<-arrived
	}
	gate <- struct{}{}
	if err := <-indexed; err != nil {
		t.Fatal(err)
	}

	updated := make(chan error, 1)
	go func() { updated <- p.UpdateDocument(tok, Document{ID: 1, Content: "martha layoff", Group: 1}) }()
	// All three insert stages are in flight at once: the slow server's
	// has arrived although nobody has released it.
	for i := 0; i < 3; i++ {
		<-arrived
	}
	// Give a delete stage that does not wait every chance to show up.
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n := log.arrivals(transport.StageDelete); n != 0 {
			t.Fatalf("%d delete stage(s) sent before the slow server acknowledged the inserts", n)
		}
	}
	gate <- struct{}{}
	if err := <-updated; err != nil {
		t.Fatal(err)
	}

	insertAcks := 0
	for _, e := range log.events[6:] { // past the first version's three inserts
		if e.stage == transport.StageInsert && e.done {
			insertAcks++
		}
		if e.stage == transport.StageDelete && !e.done && insertAcks != 3 {
			t.Errorf("delete stage reached server %d after %d insert acks", e.server, insertAcks)
		}
	}
	if n := log.arrivals(transport.StageDelete); n != 3 {
		t.Errorf("%d delete stages arrived, want one a server", n)
	}
	assertExactlyExpected(t, tc, gidsOf(t, p, 1))
}

// TestRecoverFromAnyAckSubset fails every non-empty subset of the three
// servers in either stage of an update. A serial walk can only leave a
// prefix of the servers acknowledged; the concurrent one leaves any
// subset. Whatever it is, the journal holds it, and a peer that crashes
// there, reopens and recovers converges: no orphaned element on any
// server, and retrieval sees exactly the updated document.
func TestRecoverFromAnyAckSubset(t *testing.T) {
	engines := map[string]func(t *testing.T) func(int) store.Store{
		"sharded": func(*testing.T) func(int) store.Store {
			return func(int) store.Store { return store.NewSharded(0) }
		},
		"disk": func(t *testing.T) func(int) store.Store {
			dir := t.TempDir()
			return func(i int) store.Store {
				d, err := store.OpenDisk(filepath.Join(dir, fmt.Sprint(i)), store.DiskOptions{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { d.Close() })
				return d
			}
		},
	}
	for name, engine := range engines {
		for _, stage := range []uint8{transport.StageInsert, transport.StageDelete} {
			for failing := 1; failing < 1<<3; failing++ {
				t.Run(fmt.Sprintf("%s/stage%d/servers%03b", name, stage, failing), func(t *testing.T) {
					tc := newStoreCluster(t, 3, corpusTerms, engine(t))
					tc.groups.Add("alice", 1)
					tok := tc.svc.Issue("alice")
					apis := make([]transport.API, 3)
					for i := range apis {
						apis[i] = tc.apis[i]
						if failing&(1<<i) != 0 {
							apis[i] = &failStageOnce{API: tc.apis[i], stage: stage, failed: true}
						}
					}
					cfg := Config{
						Name: "site", Servers: apis, K: 2, Table: tc.table, Vocab: tc.voc,
						Rand:        rand.New(rand.NewSource(int64(failing))),
						JournalPath: filepath.Join(t.TempDir(), "site.journal"),
					}
					p1, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := p1.IndexDocument(tok, Document{ID: 1, Content: "martha imclone merger", Group: 1}); err != nil {
						t.Fatal(err)
					}
					for _, api := range apis {
						if f, ok := api.(*failStageOnce); ok {
							f.failed = false // armed: the update's stage fails here
						}
					}
					v2 := Document{ID: 1, Content: "martha layoff budget", Group: 1}
					if err := p1.UpdateDocument(tok, v2); err == nil {
						t.Fatal("update must surface the injected outage")
					}
					if err := p1.Close(); err != nil { // crash
						t.Fatal(err)
					}

					cfg.Rand = rand.New(rand.NewSource(int64(failing) + 100))
					p2, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer p2.Close()
					if done, err := p2.Recover(tok); err != nil || done != 1 {
						t.Fatalf("Recover = %d, %v; want the one interrupted update", done, err)
					}
					if doc, _ := p2.Document(1); doc.Content != v2.Content {
						t.Fatalf("post-recovery content %q, want the update", doc.Content)
					}
					expected := gidsOf(t, p2, 1)
					if len(expected) != 3 {
						t.Fatalf("expected 3 refs, got %d", len(expected))
					}
					assertExactlyExpected(t, tc, expected)

					cl, err := client.New(tc.apis, 2, tc.table, tc.voc)
					if err != nil {
						t.Fatal(err)
					}
					for term, hits := range map[string]int{"martha": 1, "layoff": 1, "budget": 1, "imclone": 0, "merger": 0} {
						res, _, err := cl.Search(tok, []string{term}, 10)
						if err != nil {
							t.Fatal(err)
						}
						if len(res) != hits || hits == 1 && res[0].DocID != 1 {
							t.Errorf("search %q after recovery: %v, want %d hit(s)", term, res, hits)
						}
					}
				})
			}
		}
	}
}
