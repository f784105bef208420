package client

import (
	"context"
	"fmt"
	"slices"
)

// fanResult is one server's answer in a fan-out round, tagged with the
// server's position in the client's preference order.
type fanResult[T any] struct {
	idx int
	val T
}

// fanOutCall runs the parallel first-need-of-n retrieval (Algorithm 2:
// "the client queries the available Zerber servers and needs k
// responses") for any per-server call: it launches call against up to
// Tuning.Fanout servers at once, replaces each failed request with the
// next untried server, and returns as soon as need servers have
// answered. Outstanding requests are cancelled through the per-call
// context. The results come back sorted by server index so downstream
// Lagrange bases are deterministic. Whole-list fetches and top-k block
// rounds share this one engine.
//
// pinned is nil for all of that. A streamed top-k query's rounds after
// its first pass the servers in the order to try them, the first round's
// responders first: at most need are asked at once (a slow responder is
// still the only one whose windows line up with the rounds before); the
// rest only replace a failure.
func fanOutCall[T any](ctx context.Context, c *Client, need int, pinned []int, call func(ctx context.Context, server int) (T, error)) ([]fanResult[T], error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(c.servers)
	type result struct {
		idx int
		val T
		err error
	}
	// Buffered to n: cancelled stragglers can always deliver and exit.
	results := make(chan result, n)
	next := 0
	launch := func() bool {
		if next >= n {
			return false
		}
		i := next
		if pinned != nil {
			i = pinned[next]
		}
		next++
		go func() {
			out, err := call(ctx, i)
			results <- result{idx: i, val: out, err: err}
		}()
		return true
	}
	width := c.tuning.fanoutWidth(n)
	if pinned != nil {
		width = min(width, need)
	}
	for started := width; started > 0; started-- {
		launch()
	}

	responses := make([]fanResult[T], 0, need)
	var lastErr error
	finished := 0
	for len(responses) < need {
		if finished == next && !launch() {
			// Every reachable server has answered or failed and none
			// remain to try.
			if lastErr != nil {
				return nil, fmt.Errorf("%w: %d of %d (last error: %v)", ErrNotEnough, len(responses), need, lastErr)
			}
			return nil, fmt.Errorf("%w: %d of %d", ErrNotEnough, len(responses), need)
		}
		select {
		case r := <-results:
			finished++
			if r.err != nil {
				lastErr = r.err
				launch() // replace the failed request with the next server
				continue
			}
			responses = append(responses, fanResult[T]{idx: r.idx, val: r.val})
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	slices.SortFunc(responses, func(a, b fanResult[T]) int { return a.idx - b.idx })
	return responses, nil
}
