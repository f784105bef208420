package client_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/transport"
)

// heldAPI holds back every Apply until release and then delivers them
// last first: the server behind it receives the writers' batches in the
// opposite order to the others, which is what concurrent peers do to a
// cluster.
type heldAPI struct {
	transport.API
	mu   sync.Mutex
	held []func() error
}

func (h *heldAPI) Apply(ctx context.Context, tok auth.Token, op transport.OpID, ins []transport.InsertOp, dels []transport.DeleteOp) error {
	ins, dels = slices.Clone(ins), slices.Clone(dels)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.held = append(h.held, func() error { return h.API.Apply(context.Background(), tok, op, ins, dels) })
	return nil
}

func (h *heldAPI) release(t *testing.T) {
	t.Helper()
	for i := len(h.held) - 1; i >= 0; i-- {
		if err := h.held[i](); err != nil {
			t.Fatal(err)
		}
	}
}

// flakyBlocks fails the block requests past a list's first window whose
// ordinal (1, 2, ... over this server's life) failOn names; all of them
// when failOn is nil.
type flakyBlocks struct {
	transport.API
	failOn []int32
	deeper atomic.Int32
}

func (f *flakyBlocks) GetPostingBlocks(ctx context.Context, tok auth.Token, lid merging.ListID, from, n int) (transport.BlockPage, error) {
	if from > 0 {
		if nth := f.deeper.Add(1); f.failOn == nil || slices.Contains(f.failOn, nth) {
			return transport.BlockPage{}, errors.New("flaky: no deeper windows from this server")
		}
	}
	return f.API.GetPostingBlocks(ctx, tok, lid, from, n)
}

// skewedEnv is a cluster two writers have loaded with servers 0 and 1
// receiving writer A's batch before writer B's and server 2 the reverse,
// so every list is laid out A·B on two servers and B·A on the third.
// "imclone" has a 16-element list, 8 from each writer; "martha" one of
// long elements, which the 16 imclone documents are in too. Every term
// frequency is 1: one impact bucket, so position is arrival order.
func skewedEnv(t *testing.T, long int) (*env, auth.Token) {
	t.Helper()
	e := newEnv(t, 4)
	if e.table.ListOf("martha") == e.table.ListOf("imclone") {
		t.Fatal("martha and imclone share a list")
	}
	alice := e.svc.Issue("alice")
	held := &heldAPI{API: e.apis[2]}
	apis := []transport.API{e.apis[0], e.apis[1], held}
	id := uint32(0)
	for w, name := range []string{"writerA", "writerB"} {
		p, err := peer.New(peer.Config{
			Name: name, Servers: apis, K: 2, Table: e.table, Vocab: e.voc,
			Rand: rand.New(rand.NewSource(int64(w))),
		})
		if err != nil {
			t.Fatal(err)
		}
		b := p.NewBatch()
		for i := 0; i < long/2; i++ {
			id++
			doc := peer.Document{ID: id, Content: "martha", Group: 1}
			if i < 8 {
				doc.Content = "martha imclone"
			}
			if err := b.Add(doc); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(alice); err != nil {
			t.Fatal(err)
		}
	}
	held.release(t)
	return e, alice
}

// TestTopKSurvivesResponderChange is the regression test for the
// position-paging defect: a list laid out differently per server, and a
// responder that drops out between block rounds. Before rounds were
// pinned to their responders, the second round came from {0, 2} after
// the first from {0, 1}; writer B's elements sat in server 2's first
// window, which nobody had fetched from it, never collected k shares and
// dropped out of the scores. Now the change of responders restarts the
// query on the new pair.
func TestTopKSurvivesResponderChange(t *testing.T) {
	e, alice := skewedEnv(t, 40)
	newClient := func(failOn1, failOn2 []int32) *client.Client {
		c, err := client.New([]transport.API{
			e.apis[0],
			&flakyBlocks{API: e.apis[1], failOn: failOn1},
			&flakyBlocks{API: e.apis[2], failOn: failOn2},
		}, 2, e.table, e.voc)
		if err != nil {
			t.Fatal(err)
		}
		c.SetTuning(client.Tuning{Fanout: 2, BlockSize: 8}) // rounds go to servers 0 and 1 while both answer
		return c
	}
	never := []int32{}

	for _, query := range [][]string{{"imclone"}, {"martha", "imclone"}} {
		t.Run(fmt.Sprint(len(query), "-term"), func(t *testing.T) {
			c := newClient(nil, never) // server 1 serves first windows only
			want := bruteTopK(t, c, alice, query, 20)
			// The streamed loop directly, which takes the one-term query
			// only, and then the planner's choice.
			if len(query) == 1 {
				got, stats, err := c.SearchTopKStreamed(alice, query[0], 20)
				if err != nil {
					t.Fatal(err)
				}
				if !sameScored(got, want) {
					t.Fatalf("streamed %v = %v, want %v", query, got, want)
				}
				if stats.TA.Depth < 2 {
					t.Errorf("streamed %v took %d rounds: no responder changed under it", query, stats.TA.Depth)
				}
			}
			if got, _, err := c.SearchTopK(alice, query, 20); err != nil || !sameScored(got, want) {
				t.Fatalf("SearchTopK(%v) = %v, %v, want %v", query, got, err, want)
			}
		})
	}

	t.Run("restart", func(t *testing.T) {
		// Server 1 fails its first deeper window: the attempt on {0, 1}
		// is abandoned in round 2 and the one on {0, 2} answers, in two
		// rounds of its own (8 elements, then the 8 that are left).
		c := newClient([]int32{1}, never)
		want := bruteTopK(t, c, alice, []string{"imclone"}, 20)
		got, stats, err := c.SearchTopK(alice, []string{"imclone"}, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !sameScored(got, want) {
			t.Fatalf("SearchTopK = %v, want %v", got, want)
		}
		if stats.TA.Depth != 2 || stats.ServersQueried != 3 {
			t.Errorf("depth %d over %d servers, want the final attempt's 2 rounds and all 3 servers seen", stats.TA.Depth, stats.ServersQueried)
		}
	})

	t.Run("gives up", func(t *testing.T) {
		// Server 1 fails its first deeper window and server 2 its second:
		// {0, 1} gives way to {0, 2}, which gives way to {0, 1} again, and
		// n-k+1 = 2 attempts are all a query gets.
		c := newClient([]int32{1}, []int32{2})
		_, _, err := c.SearchTopK(alice, []string{"imclone"}, 20)
		if !errors.Is(err, client.ErrNotEnough) {
			t.Fatalf("SearchTopK: %v, want ErrNotEnough after two attempts", err)
		}
	})
}

// slowBlocks answers late, by delay, the slowOn-th block request past a
// list's first window that it gets.
type slowBlocks struct {
	transport.API
	delay  time.Duration
	slowOn int32
	deeper atomic.Int32
}

func (s *slowBlocks) GetPostingBlocks(ctx context.Context, tok auth.Token, lid merging.ListID, from, n int) (transport.BlockPage, error) {
	if from > 0 && s.deeper.Add(1) == s.slowOn {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return transport.BlockPage{}, ctx.Err()
		}
	}
	return s.API.GetPostingBlocks(ctx, tok, lid, from, n)
}

// TestTopKKeepsSlowPinnedResponder: the rounds after a streamed query's
// first ask only the responders pinned by it, and wait for a slow one.
// At the default width the first round asks servers 0 and 1, the first
// k in preference order, and may hedge with server 2; at Fanout: 3 it
// asks all three and pins the first two to answer. Were a later round
// to ask the unpinned server too, by a hedge or by the explicit width,
// it could win that round from a slow pinned one and restart the query
// on a new pair; servers 1 and 2 are slow on different rounds, so the
// new pair can lose a round the same way, and n-k+1 = 2 attempts are
// all a query gets.
func TestTopKKeepsSlowPinnedResponder(t *testing.T) {
	e, alice := skewedEnv(t, 40)
	const delay = 50 * time.Millisecond
	for _, fanout := range []int{0, 3} {
		c, err := client.New([]transport.API{
			e.apis[0],
			&slowBlocks{API: e.apis[1], delay: delay, slowOn: 1},
			&slowBlocks{API: e.apis[2], delay: delay, slowOn: 2},
		}, 2, e.table, e.voc)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteTopK(t, c, alice, []string{"imclone"}, 20)
		c.SetTuning(client.Tuning{Fanout: fanout, BlockSize: 4})
		got, stats, err := c.SearchTopK(alice, []string{"imclone"}, 20)
		if err != nil {
			t.Fatalf("Fanout %d: %v", fanout, err)
		}
		if !sameScored(got, want) || stats.TA.Depth < 2 || stats.ServersQueried != 2 {
			t.Fatalf("Fanout %d: SearchTopK = %v in %d rounds on %d servers, want %v in several rounds on 2", fanout, got, stats.TA.Depth, stats.ServersQueried, want)
		}
	}
}
