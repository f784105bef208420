package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/transport"
)

// Fault sentinels. The runner matches ErrPeerKilled to turn a transport
// fault into a peer crash; everything else surfaces as an ordinary
// call failure the mutation engine must retry through.
var (
	// ErrServerDown reports a call against a server under a sticky
	// simulated outage.
	ErrServerDown = errors.New("sim: server down")
	// ErrPeerKilled reports that the peer process was killed mid-call;
	// the runner reopens the peer from its journal and recovers.
	ErrPeerKilled = errors.New("sim: peer killed mid-call")
	errTransient  = errors.New("sim: injected transient failure")
	errLostResp   = errors.New("sim: response lost after apply")
)

// Faults are the per-call fault probabilities of a simulated transport.
// All faults are drawn from the simulation's seeded random stream, so a
// run's fault schedule is reproducible.
type Faults struct {
	// Fail drops a mutation call before it reaches the server.
	Fail float64
	// LostResponse applies the mutation, then loses the response: the
	// server holds the state, the peer records no acknowledgement — the
	// redelivery-deduplication path.
	LostResponse float64
	// Duplicate delivers an Apply twice back-to-back (a retrying
	// network layer).
	Duplicate float64
	// Redeliver first re-delivers a randomly chosen earlier Apply of
	// the same server — an arbitrarily delayed, out-of-order duplicate.
	Redeliver float64
	// KillPeer kills the peer mid-call (before or after the server
	// applies, chosen at random); the runner restarts it from the
	// journal.
	KillPeer float64
}

// DefaultFaults is the short tier's fault mix: every fault class on at
// low enough rates that programs still make progress.
func DefaultFaults() Faults {
	return Faults{Fail: 0.08, LostResponse: 0.05, Duplicate: 0.08, Redeliver: 0.06, KillPeer: 0.04}
}

// enabled reports whether any fault has a non-zero probability.
func (f Faults) enabled() bool {
	return f.Fail > 0 || f.LostResponse > 0 || f.Duplicate > 0 || f.Redeliver > 0 || f.KillPeer > 0
}

// faultCore is the state shared by all of one simulation's Transports:
// the seeded fault stream, the sticky per-server outage flags, and the
// peer-killed latch the runner polls after every mutation.
type faultCore struct {
	mu     sync.Mutex
	rng    *rand.Rand
	plan   Faults
	down   []bool
	killed bool
}

func newFaultCore(seed int64, plan Faults, servers int) *faultCore {
	return &faultCore{
		rng:  rand.New(rand.NewSource(seed ^ 0x51a7f00d)),
		plan: plan,
		down: make([]bool, servers),
	}
}

func (c *faultCore) setDown(i int, down bool) {
	c.mu.Lock()
	c.down[i] = down
	c.mu.Unlock()
}

func (c *faultCore) isDown(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[i]
}

func (c *faultCore) downCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, d := range c.down {
		if d {
			n++
		}
	}
	return n
}

func (c *faultCore) clearDown() {
	c.mu.Lock()
	for i := range c.down {
		c.down[i] = false
	}
	c.mu.Unlock()
}

// takeKilled reports and clears the peer-killed latch.
func (c *faultCore) takeKilled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.killed
	c.killed = false
	return k
}

// applyDecision is one Apply call's fault schedule, drawn atomically so
// the stream stays deterministic.
type applyDecision struct {
	fail       bool
	lost       bool
	dup        bool
	redeliver  int // index into history, -1 for none
	killBefore bool
	killAfter  bool
}

func (c *faultCore) decide(historyLen int) applyDecision {
	c.mu.Lock()
	defer c.mu.Unlock()
	var d applyDecision
	d.redeliver = -1
	roll := func(p float64) bool { return p > 0 && c.rng.Float64() < p }
	d.fail = roll(c.plan.Fail)
	d.lost = roll(c.plan.LostResponse)
	d.dup = roll(c.plan.Duplicate)
	if historyLen > 0 && roll(c.plan.Redeliver) {
		d.redeliver = c.rng.Intn(historyLen)
	}
	if roll(c.plan.KillPeer) {
		if c.rng.Intn(2) == 0 {
			d.killBefore = true
		} else {
			d.killAfter = true
		}
	}
	return d
}

func (c *faultCore) latchKilled() {
	c.mu.Lock()
	c.killed = true
	c.mu.Unlock()
}

// applyRec is one successfully delivered Apply, kept for out-of-order
// redelivery. Shares are per-server, so a record is only ever
// redelivered to the server that first received it.
type applyRec struct {
	tok     auth.Token
	op      transport.OpID
	inserts []transport.InsertOp
	deletes []transport.DeleteOp
}

// historyCap bounds the per-server redelivery buffer.
const historyCap = 128

// Transport is the fault-injecting transport.API wrapper of the model
// checker — the adversarial sibling of transport.Latency. One Transport
// fronts one index server; all Transports of a simulation share a
// faultCore, whose seeded stream schedules transient delivery failures,
// lost responses, immediate duplicates, arbitrarily delayed out-of-order
// redeliveries, peer kills mid-call, and sticky per-server outages.
// Lookups only honor outages: faults target the mutation protocol, and
// a deterministic read path is what lets the checker compare answer
// sets exactly.
type Transport struct {
	core    *faultCore
	idx     int
	api     transport.API
	history []applyRec
}

// newTransport wraps one server's API with the shared fault core.
func newTransport(core *faultCore, idx int, api transport.API) *Transport {
	return &Transport{core: core, idx: idx, api: api}
}

var _ transport.API = (*Transport)(nil)

// XCoord returns the wrapped server's x-coordinate.
func (t *Transport) XCoord() field.Element { return t.api.XCoord() }

// Apply delivers one mutation stage through the fault schedule.
func (t *Transport) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	if t.core.isDown(t.idx) {
		return fmt.Errorf("server %d: %w", t.idx, ErrServerDown)
	}
	d := t.core.decide(len(t.history))
	if d.killBefore {
		t.core.latchKilled()
		return fmt.Errorf("server %d: %w", t.idx, ErrPeerKilled)
	}
	if d.fail {
		return fmt.Errorf("server %d: %w", t.idx, errTransient)
	}
	if d.redeliver >= 0 {
		// A delayed duplicate of an old stage arrives first. Its
		// outcome is invisible to the peer (the original call returned
		// long ago); the server's dedup window must absorb it.
		h := t.history[d.redeliver]
		_ = t.api.Apply(ctx, h.tok, h.op, h.inserts, h.deletes)
	}
	if err := t.api.Apply(ctx, tok, op, inserts, deletes); err != nil {
		return err
	}
	if len(t.history) < historyCap {
		t.history = append(t.history, applyRec{tok: tok, op: op, inserts: inserts, deletes: deletes})
	}
	if d.dup {
		if err := t.api.Apply(ctx, tok, op, inserts, deletes); err != nil {
			return fmt.Errorf("server %d: duplicated delivery rejected: %w", t.idx, err)
		}
	}
	if d.killAfter {
		t.core.latchKilled()
		return fmt.Errorf("server %d: %w", t.idx, ErrPeerKilled)
	}
	if d.lost {
		return fmt.Errorf("server %d: %w", t.idx, errLostResp)
	}
	return nil
}

// GetPostingLists forwards when the server is up; the read path is
// fault-free by design so checks are exact.
func (t *Transport) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	if t.core.isDown(t.idx) {
		return nil, fmt.Errorf("server %d: %w", t.idx, ErrServerDown)
	}
	return t.api.GetPostingLists(ctx, tok, lists)
}

// GetPostingBlocks forwards when the server is up; like GetPostingLists,
// the read path is fault-free by design so checks are exact.
func (t *Transport) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (transport.BlockPage, error) {
	if t.core.isDown(t.idx) {
		return transport.BlockPage{}, fmt.Errorf("server %d: %w", t.idx, ErrServerDown)
	}
	return t.api.GetPostingBlocks(ctx, tok, list, from, n)
}
