// Top-k retrieval (Zerber+R, paper §6): the k best accessible documents
// by summed term frequency (ties by ascending document ID), a
// collection-independent, monotone score that the impact-bucket layout
// orders servers by and that exhaustive retrieval reproduces exactly,
// which is the oracle equality the simulator checks. (TF-IDF needs
// collection statistics only a full fetch can know; exact mode keeps it.)
// Each query takes one of two exact plans, by its term count.
//
// A one-term query streams: round by round it pulls the next
// score-ordered block of its one list from each of k servers, one call
// per server, joins and decrypts the blocks incrementally (join.go), and
// ranks what it has decrypted so far (ranking.TopKByTF). It stops once
// the k-th score is above the impact-bucket bound on every posting not
// yet decrypted, so a hot term costs what the depth of its k-th result
// costs. With several terms no such bound suffices: a document's score
// is exact only once it has been seen in, or ruled out of, every term's
// list, and only a list's end rules a document out. A streamed query of
// several terms would read all of its lists but the longest to the end,
// in rounds that cost a call each, to save at most that one's tail. Such
// a query takes the whole-list plan instead: exact retrieval's one call
// per server (wholeLists), ranked by the same rule.
// BenchmarkTopKPlan (plan_test.go) records both plans at every size.
//
// Block windows are positions. Every server keeps a list in one
// canonical order, a function of the elements it holds (see package
// store), so a window names the same elements on every server that holds
// the same set. Servers do not always hold the same set, because a
// mutation's Apply reaches them one at a time. Say a list's first 100
// elements are in buckets 6 and up, and a peer's insert of a bucket-5
// element has reached server A but not yet server B: the new element is
// A's element 100, every element after it sits one position later on A
// than on B, and window [256, 512) on A starts with B's element 255. So
// a streamed query keeps to one set of k responders, the first round's:
// each delivers every element in some round, and an element waits in
// the join for its other shares. When another server has to answer a
// later round (a pinned one failed) the windows read so far may not line
// up on it, and the query starts over on the new set, at most n-k+1
// times.
package client

import (
	"context"
	"fmt"
	"math/bits"

	"zerber/internal/auth"
	"zerber/internal/posting"
	"zerber/internal/ranking"
	"zerber/internal/transport"
)

// maxBlockWindow caps the per-round window growth: doubling starts at
// Tuning.BlockSize and stops here, so one deep query never escalates to
// unbounded pages.
const maxBlockWindow = 4096

// SearchTopK runs a keyword query through top-k retrieval and returns
// the top k accessible documents ranked by summed term frequency (ties
// by ascending document ID).
func (c *Client) SearchTopK(tok auth.Token, query []string, k int) ([]ranking.ScoredDoc, Stats, error) {
	return c.SearchTopKContext(context.Background(), tok, query, k)
}

// SearchTopKContext is SearchTopK bounded by ctx: cancelling it aborts
// the fan-out of either plan.
func (c *Client) SearchTopKContext(ctx context.Context, tok auth.Token, query []string, k int) ([]ranking.ScoredDoc, Stats, error) {
	terms := dedup(query)
	if k <= 0 || len(terms) == 0 {
		return nil, Stats{}, nil
	}
	if len(terms) == 1 {
		return c.searchTopKStream(ctx, tok, terms[0], k)
	}
	return c.searchTopKWhole(ctx, tok, terms, k)
}

// searchTopKWhole is the whole-list plan. Stats.TA reads as one round:
// Depth 1, a block per list per responder, and TotalPostings the rows
// joined: the lists' accessible length, their full one is not on this wire.
func (c *Client) searchTopKWhole(ctx context.Context, tok auth.Token, terms []string, k int) ([]ranking.ScoredDoc, Stats, error) {
	p := c.newPipeline(terms)
	defer p.release()
	stats := &p.stats
	lists, shares, rows, err := p.wholeLists(ctx, tok, terms, true)
	if err != nil {
		return nil, *stats, err
	}
	blocks := stats.ListsRequested * stats.ServersQueried
	stats.TA.Depth = 1
	stats.TA.BlocksFetched = blocks
	stats.TA.SortedAccesses = shares
	stats.TA.TotalPostings = rows
	stats.TA.WireBytes = blocks*transport.ListHeaderBytes + shares*transport.ShareBytes
	stats.TA.ElementsDecrypted = stats.ElementsFetched
	return ranking.TopKByTF(lists, k), *stats, nil
}

// searchTopKStream is the streamed plan, for one term: block rounds
// through the fan-out engine, one GetPostingBlocks call per responder per
// round, incremental decryption, and after each round the top k of
// everything decrypted so far, checked against the impact-bucket bound
// on what is not. Stats' work counters cover every attempt; TA.Depth and
// TA.TotalPostings the last.
func (c *Client) searchTopKStream(ctx context.Context, tok auth.Token, term string, k int) ([]ranking.ScoredDoc, Stats, error) {
	p := c.newPipeline([]string{term})
	defer p.release()
	stats := &p.stats
	stats.ListsRequested = 1
	lid := c.table.ListOf(term)
	// The first round is an ordinary fan-out. Its responders are pinned
	// for the rounds after it: order lists them first.
	n := len(c.servers)
	var order []int
	var pinned, serversSeen uint64

attempts:
	for attempt := 0; attempt <= n-c.k; attempt++ {
		// The term's decrypted postings, in delivery order: the whole
		// arena is this one list, and follows it as it grows.
		posts := [1][]ranking.Posting{p.posts[:0]}
		var top []ranking.ScoredDoc
		// Between rounds the join's rows are the pending elements: seen in
		// some server's window but on fewer than k servers so far.
		join := &p.join
		join.reset(0, 0)
		fetched, total := 0, 0 // next position to request; longest unfiltered length any server reported
		window := c.tuning.blockSize()

		for round := 0; ; round++ {
			// The call reads this round's window from its own copy: a
			// straggler of the round may still be reading it after the
			// next round has moved on.
			from, size := fetched, window
			results, err := fanOutCall(ctx, c, c.k, order, &c.blockRTT, func(ctx context.Context, i int) (transport.BlockPage, error) {
				return c.servers[i].GetPostingBlocks(ctx, tok, lid, from, size)
			})
			if err != nil {
				return nil, *stats, err
			}
			var responders uint64
			for _, r := range results {
				responders |= 1 << uint(r.idx)
			}
			serversSeen |= responders
			if responders != pinned {
				pinned, order = responders, order[:0]
				for _, r := range results {
					order = append(order, r.idx)
				}
				for _, i := range *c.pref.Load() {
					if responders>>uint(i)&1 == 0 {
						order = append(order, i)
					}
				}
				if round > 0 {
					continue attempts
				}
			}
			// Elements the k responders all delivered share one Lagrange
			// basis, fetched from the cross-query cache once per round.
			p.bases = p.bases[:0]
			roundBasis, err := p.basisFor(responders)
			if err != nil {
				return nil, *stats, err
			}
			stats.TA.Depth = round + 1
			stats.TA.BlocksFetched += len(results)

			// Fold every server's page into the join. An element missing
			// from a server's window arrives in a later one (replication
			// skew shifts positions), so its row waits in the join until k
			// servers have delivered it.
			fetched = from + size
			exhausted := true
			bound, shares := 0.0, 0 // bound: the most an undecrypted posting can weigh
			for _, r := range results {
				page := r.val
				shares += len(page.Shares)
				stats.TA.WireBytes += transport.BlockHeaderBytes + len(page.Shares)*transport.ShareBytes
				stats.TA.SortedAccesses += len(page.Shares)
				total = max(total, page.Total)
				if fetched < page.Total {
					// Positions beyond the window: an unseen element is
					// bounded by the next bucket of whichever server has it.
					exhausted = false
					bound = max(bound, float64(posting.BucketMaxTF(page.Next)))
				}
			}

			join.reset(len(join.gids), shares)
			for _, r := range results {
				// A share for a cell already filled is a redelivery from
				// an overlapping window; the join drops it. The join keeps
				// copies, so the page goes back to posting's pool.
				join.add(r.idx, r.val.Shares)
				posting.PutShares(r.val.Shares)
			}
			// Rows with k shares are decryptable now and leave the join.
			if err := p.open(lid, roundBasis, nil, posts[:]); err != nil {
				return nil, *stats, err
			}
			p.posts = posts[0]
			if exhausted {
				// No further windows will arrive: under-replicated
				// leftovers are skipped, as the whole-list plan skips them.
				join.reset(0, 0)
			}
			// A pending element (seen, not yet decryptable) bounds the
			// term too, by the impact bucket in its global ID.
			for _, gid := range join.gids {
				bound = max(bound, float64(posting.BucketMaxTF(posting.ImpactOf(gid))))
			}
			// The top k are final once the list is exhausted, or once
			// nothing unread can reach the k-th score: strictly, because
			// an unread document that ties it may have the smaller ID.
			top = ranking.TopKByTF(posts[:], k)
			if exhausted || (len(top) == k && bound < top[k-1].Score) {
				break
			}
			// Deeper rounds widen the window: doubling keeps the round count
			// logarithmic in the final scan depth.
			if window < maxBlockWindow {
				window *= 2
			}
		}

		stats.ServersQueried = bits.OnesCount64(serversSeen)
		stats.TA.Streamed = true
		stats.TA.ElementsDecrypted = stats.ElementsFetched
		stats.TA.TotalPostings = total
		return top, *stats, nil
	}
	return nil, *stats, fmt.Errorf("%w: the responders of a streamed top-k query changed in each of %d attempts", ErrNotEnough, n-c.k+1)
}
