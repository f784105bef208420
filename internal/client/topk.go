// Top-k retrieval: the streaming threshold-algorithm loop of Zerber+R
// (paper §6). Instead of fetching whole posting lists, the client pulls
// score-ordered blocks of each query term's list from k servers, joins
// and decrypts them incrementally through the shared pipeline (join.go),
// and stops as soon as the NRA threshold (ranking.Stream) proves the top
// k are final. The cost of a query then scales with how deep the k-th
// result sits, not with the length of the posting list — the property
// that makes hot Zipfian terms affordable.
//
// Ranking in this mode is by summed term frequency (ties broken by
// ascending document ID): a collection-independent, monotone score that
// the impact-bucket layout orders servers by, and that exhaustive
// retrieval reproduces exactly — the oracle-equality property the
// simulator checks. TF-IDF reweighting needs personalized collection
// statistics that only a full fetch can know, which is exactly what
// early termination avoids; exact mode keeps them.
package client

import (
	"context"
	"math/bits"
	"sync"

	"zerber/internal/auth"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/ranking"
	"zerber/internal/transport"
)

// maxBlockWindow caps the per-round window growth: doubling starts at
// Tuning.BlockSize and stops here, so one deep query never escalates to
// unbounded pages.
const maxBlockWindow = 4096

// SearchTopK runs a keyword query through the early-terminating block
// retrieval loop and returns the top k accessible documents ranked by
// summed term frequency (ties by ascending document ID).
func (c *Client) SearchTopK(tok auth.Token, query []string, k int) ([]ranking.ScoredDoc, Stats, error) {
	return c.SearchTopKContext(context.Background(), tok, query, k)
}

// SearchTopKContext is SearchTopK bounded by ctx: cancelling it aborts
// the block fan-out.
func (c *Client) SearchTopKContext(ctx context.Context, tok auth.Token, query []string, k int) ([]ranking.ScoredDoc, Stats, error) {
	var stats Stats
	if k <= 0 {
		return nil, stats, nil
	}
	terms := dedup(query)
	if len(terms) == 0 {
		return nil, stats, nil
	}
	if len(terms) > ranking.MaxStreamTerms {
		// Queries wider than the stream's term mask fall back to
		// exhaustive retrieval under the same frequency-sum order.
		return c.searchTopKExhaustive(ctx, tok, terms, k)
	}
	return c.searchTopKStream(ctx, tok, terms, k, &stats)
}

// blockReq is one list's window in a block round.
type blockReq struct {
	lid  merging.ListID
	from int
	n    int
}

// listState tracks the retrieval progress of one merged posting list.
type listState struct {
	lid       merging.ListID
	termIdxs  []int // indices into terms served by this list
	fetched   int   // next position to request
	exhausted bool
	suffix    uint8 // impact bound on unfetched positions (valid while !exhausted)
	total     int   // longest unfiltered length any server reported
	// join is the list's share join. Between rounds its rows are the
	// pending elements: seen in some server's window but on fewer than
	// k servers so far.
	join joinTable
}

// searchTopKStream is the streaming no-random-access TA loop: rounds of
// score-ordered block fetches through the fan-out engine, incremental
// decryption, and a convergence check against the impact-bucket bounds.
func (c *Client) searchTopKStream(ctx context.Context, tok auth.Token, terms []string, k int, stats *Stats) ([]ranking.ScoredDoc, Stats, error) {
	// Group query terms by merged list: terms sharing a list share its
	// pages and its score bound.
	states := make([]*listState, 0, len(terms))
	byLID := make(map[merging.ListID]*listState, len(terms))
	for ti, term := range terms {
		lid := c.table.ListOf(term)
		st := byLID[lid]
		if st == nil {
			st = &listState{lid: lid, join: c.newJoin()}
			byLID[lid] = st
			states = append(states, st)
		}
		st.termIdxs = append(st.termIdxs, ti)
	}
	stats.ListsRequested = len(states)

	p := c.newPipeline(terms, stats)
	stream := ranking.NewStream(len(terms), k)
	observe := func(term int, post ranking.Posting) { stream.Observe(term, post.DocID, float64(post.TF)) }
	var serversSeen uint64
	window := c.tuning.blockSize()

	for round := 0; ; round++ {
		// Snapshot this round's requests: every still-open list advances
		// by the current window.
		reqs := make([]blockReq, 0, len(states))
		for _, st := range states {
			if !st.exhausted {
				reqs = append(reqs, blockReq{lid: st.lid, from: st.fetched, n: window})
			}
		}
		if len(reqs) == 0 {
			break // every list exhausted; all terms are closed below
		}

		results, err := fanOutCall(ctx, c, c.k, func(ctx context.Context, i int) (map[merging.ListID]transport.BlockPage, error) {
			return c.fetchBlockRound(ctx, i, tok, reqs)
		})
		if err != nil {
			return nil, *stats, err
		}
		// Elements the round's k responders all delivered share one
		// Lagrange basis, fetched from the cross-query cache once per
		// round; stragglers rotate the responder set between rounds.
		var responders uint64
		for _, r := range results {
			responders |= 1 << uint(r.idx)
		}
		serversSeen |= responders
		p.bases = p.bases[:0]
		roundBasis, err := p.basisFor(responders)
		if err != nil {
			return nil, *stats, err
		}
		stats.TA.Depth = round + 1
		stats.TA.BlocksFetched += len(reqs) * len(results)

		// Fold every server's pages into the per-list join and recompute
		// each list's exhaustion and suffix bound. An element missing
		// from a server's window may still arrive in a later one
		// (replication skew shifts positions), so its row waits in the
		// join until k servers have delivered it.
		for _, rq := range reqs {
			st := byLID[rq.lid]
			allExhausted := true
			var suffix uint8
			shares := 0
			for _, r := range results {
				page := r.val[rq.lid]
				shares += len(page.Shares)
				stats.TA.WireBytes += transport.BlockHeaderBytes + len(page.Shares)*transport.ShareBytes
				stats.TA.SortedAccesses += len(page.Shares)
				if page.Total > st.total {
					st.total = page.Total
				}
				if rq.from+rq.n < page.Total {
					// This server has positions beyond the window; any
					// unseen element there is bounded by its next bucket.
					// The suffix bound must be the MAX across servers: an
					// element not yet observed could reside on any of them.
					allExhausted = false
					if page.Next > suffix {
						suffix = page.Next
					}
				}
			}
			st.fetched = rq.from + rq.n
			st.exhausted = allExhausted
			st.suffix = suffix

			st.join.reset(len(st.join.gids), shares)
			for _, r := range results {
				// A share for a cell already filled is a redelivery from
				// an overlapping window; the join drops it.
				st.join.add(r.idx, r.val[rq.lid].Shares)
			}
			// Rows with k shares are decryptable now and leave the join;
			// Stats and results do not depend on their order.
			if err := p.open(&st.join, st.lid, roundBasis, nil, observe); err != nil {
				return nil, *stats, err
			}
			if st.exhausted {
				// No further windows will arrive for this list;
				// under-replicated leftovers are skipped, exactly as the
				// whole-list path skips elements with fewer than k shares.
				st.join.reset(0, 0)
			}
		}

		// Publish the per-term bounds: a term's unobserved postings are
		// bounded by its list's suffix bucket or by the bucket of a
		// pending (seen but not yet decryptable) element, whichever is
		// larger. Impact buckets ride in the GlobalID, so pending bounds
		// need no decryption.
		for _, st := range states {
			bound := 0.0
			open := !st.exhausted
			if !st.exhausted {
				bound = float64(posting.BucketMaxTF(st.suffix))
			}
			for _, gid := range st.join.gids {
				if b := float64(posting.BucketMaxTF(posting.ImpactOf(gid))); b > bound {
					bound = b
				}
				open = true
			}
			for _, ti := range st.termIdxs {
				stream.SetBound(ti, bound, open)
			}
		}

		if stream.Converged() {
			break
		}
		// Deeper rounds widen the window: convergence is usually quick,
		// but when it is not, doubling keeps the round count logarithmic
		// in the final scan depth.
		if window < maxBlockWindow {
			window *= 2
		}
	}

	stats.ServersQueried = bits.OnesCount64(serversSeen)
	stats.TA.ElementsDecrypted = stats.ElementsFetched
	for _, st := range states {
		stats.TA.TotalPostings += st.total
	}
	return stream.Results(), *stats, nil
}

// fetchBlockRound issues one round's page requests to one server — lists
// in parallel — and returns the pages by list. A server that fails any
// list fails the round (the fan-out engine then backfills or hedges).
func (c *Client) fetchBlockRound(ctx context.Context, server int, tok auth.Token, reqs []blockReq) (map[merging.ListID]transport.BlockPage, error) {
	srv := c.servers[server]
	if len(reqs) == 1 {
		page, err := srv.GetPostingBlocks(ctx, tok, reqs[0].lid, reqs[0].from, reqs[0].n)
		if err != nil {
			return nil, err
		}
		return map[merging.ListID]transport.BlockPage{reqs[0].lid: page}, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	out := make(map[merging.ListID]transport.BlockPage, len(reqs))
	for _, rq := range reqs {
		wg.Add(1)
		go func(rq blockReq) {
			defer wg.Done()
			page, err := srv.GetPostingBlocks(ctx, tok, rq.lid, rq.from, rq.n)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				return
			}
			out[rq.lid] = page
		}(rq)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// searchTopKExhaustive serves queries too wide for the stream mask: a
// whole-list retrieval re-ranked under the same frequency-sum order, so
// results are identical to the streaming path, just without the early
// exit.
func (c *Client) searchTopKExhaustive(ctx context.Context, tok auth.Token, terms []string, k int) ([]ranking.ScoredDoc, Stats, error) {
	lists, stats, err := c.retrieve(ctx, tok, terms)
	if err != nil {
		return nil, stats, err
	}
	scores := make(map[uint32]float64)
	for _, ps := range lists {
		for _, p := range ps {
			scores[p.DocID] += float64(p.TF)
		}
	}
	// A one-term stream fed whole documents is the frequency-sum
	// order's top-k selection.
	best := ranking.NewStream(1, k)
	for doc, sc := range scores {
		best.Observe(0, doc, sc)
	}
	return best.Results(), stats, nil
}
