package client

import (
	"context"
	"time"

	"zerber/internal/auth"
	"zerber/internal/ranking"
)

// The two top-k plans, exported to the package's external tests so they
// can run either directly: the streamed plan on any one term, the
// whole-list plan on any query, whatever its term count would pick.

func (c *Client) SearchTopKStreamed(tok auth.Token, term string, k int) ([]ranking.ScoredDoc, Stats, error) {
	return c.searchTopKStream(context.Background(), tok, term, k)
}

func (c *Client) SearchTopKWhole(tok auth.Token, query []string, k int) ([]ranking.ScoredDoc, Stats, error) {
	return c.searchTopKWhole(context.Background(), tok, dedup(query), k)
}

// RTT is the fan-out's latency estimator, exported so a test can pin
// its arithmetic.
type RTT = rtt

func (e *RTT) Sample(d time.Duration)    { e.sample(d) }
func (e *RTT) HedgeDelay() time.Duration { return e.hedgeDelay() }

const (
	InitialHedgeDelay = initialHedgeDelay
	MinHedgeDelay     = minHedgeDelay
)

// WholeListHedgeDelay is the delay after which the client's next
// whole-list fetch hedges.
func (c *Client) WholeListHedgeDelay() time.Duration { return c.wholeRTT.hedgeDelay() }
