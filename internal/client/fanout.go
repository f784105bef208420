package client

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"
)

// fanResult is one server's answer in a fan-out round, tagged with the
// server's position in the client's preference order.
type fanResult[T any] struct {
	idx int
	val T
}

// fanOutCall runs the first-need-of-n retrieval (Algorithm 2: "the
// client queries the available Zerber servers and needs k responses")
// for any per-server call. At the default width it launches call against
// need servers at once, the first in the client's preference order, and
// returns as soon as need have answered. A failed request is replaced at
// once by the next untried server. A straggler is hedged: when need
// answers are not in after est's delay, one more untried server is
// launched, and the timer re-arms while untried servers remain. Only a
// fan-out that finished without a hedge or a replaced failure feeds its
// latency back into est (Karn's rule): a hung server cannot stretch the
// delay, nor can a server that fails slowly. Nor can a hung server tax
// every query by the delay: when a hedged server's answer completes the
// fan-out, the servers still outstanding that no hedge launched were
// overtaken, and move to the end of the preference order, where later
// fan-outs reach them only as a hedge or a replacement. An explicit
// Tuning.Fanout launches that many at once and never hedges.
//
// Outstanding requests are cancelled through the per-call context. A
// cancelled call returns at once, but on the binary wire its server
// still runs it to completion and sends the response, which the
// transport drops. The results come back sorted by server index so
// downstream Lagrange bases are deterministic. Whole-list fetches and
// top-k block rounds share this one engine.
//
// pinned is nil for all of that. A streamed top-k query's rounds after
// its first pass the servers in the order to try them, the first round's
// responders first: at most need are asked at once and none is hedged
// (a slow responder is still the only one whose windows line up with
// the rounds before); the rest only replace a failure.
func fanOutCall[T any](ctx context.Context, c *Client, need int, pinned []int, est *rtt, call func(ctx context.Context, server int) (T, error)) ([]fanResult[T], error) {
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
	order := pinned
	if order == nil {
		order = *c.pref.Load()
	}
	next := 0
	// outstanding holds the servers launched and not yet finished,
	// hedged the ones a hedge launched: bit i is server i.
	var outstanding, hedged uint64
	launch := func() bool {
		if next >= n {
			return false
		}
		i := order[next]
		next++
		outstanding |= 1 << uint(i)
		go func() {
			out, err := call(ctx, i)
			results <- result{idx: i, val: out, err: err}
		}()
		return true
	}
	width := c.tuning.fanoutWidth(n, need)
	if pinned != nil {
		width = min(width, need)
	}
	if pinned != nil || c.tuning.Fanout > 0 {
		est = nil // a pinned round and a fixed width never hedge
	}
	start := time.Now()
	for started := width; started > 0; started-- {
		launch()
	}

	var timer *time.Timer
	var hedge <-chan time.Time
	// ambiguous marks a fan-out whose latency is not one round trip of
	// the servers first asked: a hedge or a replaced failure ran.
	ambiguous := false
	if est != nil && next < n {
		timer = time.NewTimer(est.hedgeDelay())
		defer timer.Stop()
		hedge = timer.C
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
			outstanding &^= 1 << uint(r.idx)
			if r.err != nil {
				lastErr = r.err
				ambiguous = true
				launch() // replace the failed request with the next server
				continue
			}
			responses = append(responses, fanResult[T]{idx: r.idx, val: r.val})
		case <-hedge:
			// Failures may have used up the untried servers since the
			// timer was armed.
			if launch() {
				ambiguous = true
				hedged |= 1 << uint(order[next-1])
			}
			if next < n {
				timer.Reset(est.hedgeDelay())
			} else {
				hedge = nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if est != nil && !ambiguous {
		est.sample(time.Since(start))
	}
	if overtaken := outstanding &^ hedged; overtaken != 0 && slices.ContainsFunc(responses, func(r fanResult[T]) bool {
		return hedged>>uint(r.idx)&1 != 0
	}) {
		c.demote(overtaken)
	}
	slices.SortFunc(responses, func(a, b fanResult[T]) int { return a.idx - b.idx })
	return responses, nil
}

// demote moves the servers in set (bit i is server i) to the end of the
// preference order, each part keeping its order. The order is replaced
// whole, never written in place, so a fan-out reads it with one load.
func (c *Client) demote(set uint64) {
	for {
		old := c.pref.Load()
		order := slices.Clone(*old)
		slices.SortStableFunc(order, func(a, b int) int {
			return int(set>>uint(a)&1) - int(set>>uint(b)&1)
		})
		if c.pref.CompareAndSwap(old, &order) {
			return
		}
	}
}

// initialHedgeDelay is the hedge delay before a call kind's first
// sample. It only ever governs a client's first fan-outs of each kind,
// and every fan-out while each one hedges. Too short costs an extra
// call, the price every query paid when the default asked all n
// servers; too long stalls a query behind a hung server. 10 ms is about
// ten times a whole-list fetch on loopback (`go run ./benchmark`'s
// exact-mem searches take ~1 ms end to end, 2 cores), so a healthy first
// query does not hedge, and still short enough that a hung first
// responder delays a query by less than a user notices.
const initialHedgeDelay = 10 * time.Millisecond

// minHedgeDelay floors the derived delay, as RFC 6298 floors its
// timeout. A fan-out on loopback can take tens of microseconds, and on
// a busy host the scheduler and the garbage collector stall a goroutine
// for longer than that: below a millisecond the noise, not a slow
// server, decides which fan-outs hedge. Unfloored, `./benchmark`'s tiny
// traced suite hedged 5% of its searches in one workload and 33% in the
// next, over the same queries.
const minHedgeDelay = time.Millisecond

// rtt is the latency estimate of one kind of fan-out: RFC 6298's smoothed
// round-trip time and its mean deviation, in microseconds, packed into
// one word (srtt in the high half, rttvar in the low) so that concurrent
// fan-outs update it with one compare-and-swap and no lock. Zero means no
// sample yet; a sample is never zero, so neither is srtt after one.
type rtt struct{ w atomic.Uint64 }

// hedgeDelay is how long a fan-out waits for its answers before it
// hedges: RFC 6298's retransmission timeout, srtt + 4·rttvar, floored
// at minHedgeDelay rather than at its one second, and without its
// back-off (a hedge adds a server and does not resend).
func (e *rtt) hedgeDelay() time.Duration {
	w := e.w.Load()
	if w == 0 {
		return initialHedgeDelay
	}
	return max(minHedgeDelay, time.Duration(w>>32+4*(w&math.MaxUint32))*time.Microsecond)
}

// sample folds one fan-out's time to its need-th answer into the
// estimate, with RFC 6298's gains: srtt takes 1/8 of the new sample and
// rttvar 1/4 of its distance from srtt; the first sample becomes srtt,
// and half of it rttvar.
func (e *rtt) sample(d time.Duration) {
	r := uint64(min(max(d.Microseconds(), 1), math.MaxUint32))
	for {
		old := e.w.Load()
		srtt, rttvar := r, r/2
		if old != 0 {
			s, v := old>>32, old&math.MaxUint32
			dev := max(s, r) - min(s, r)
			srtt, rttvar = (7*s+r)/8, (3*v+dev)/4
		}
		if e.w.CompareAndSwap(old, srtt<<32|rttvar) {
			return
		}
	}
}
