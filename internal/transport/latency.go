package transport

import (
	"context"
	"time"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// Latency wraps an API and delays every call by a fixed round-trip time,
// honoring context cancellation during the wait. The simulation
// experiments and benchmarks use it to model the §7.3 intranet RTTs, and
// the client's fan-out tests use it to stand in for a slow or straggling
// index server.
type Latency struct {
	api API
	rtt time.Duration
}

// WithLatency wraps api so every call sleeps rtt before being forwarded.
// A non-positive rtt forwards immediately.
func WithLatency(api API, rtt time.Duration) *Latency {
	return &Latency{api: api, rtt: rtt}
}

var _ API = (*Latency)(nil)

// XCoord returns the wrapped server's x-coordinate (no delay: the
// coordinate is fetched once at dial time, not per query).
func (l *Latency) XCoord() field.Element { return l.api.XCoord() }

// Apply waits out the simulated RTT, then forwards.
func (l *Latency) Apply(ctx context.Context, tok auth.Token, op OpID, inserts []InsertOp, deletes []DeleteOp) error {
	if err := l.wait(ctx); err != nil {
		return err
	}
	return l.api.Apply(ctx, tok, op, inserts, deletes)
}

// GetPostingLists waits out the simulated RTT, then forwards.
func (l *Latency) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	if err := l.wait(ctx); err != nil {
		return nil, err
	}
	return l.api.GetPostingLists(ctx, tok, lists)
}

// GetPostingBlocks waits out the simulated RTT, then forwards.
func (l *Latency) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (BlockPage, error) {
	if err := l.wait(ctx); err != nil {
		return BlockPage{}, err
	}
	return l.api.GetPostingBlocks(ctx, tok, list, from, n)
}

func (l *Latency) wait(ctx context.Context) error {
	if l.rtt <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(l.rtt)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
