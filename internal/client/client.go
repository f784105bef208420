// Package client implements the querying user's side of Zerber
// (paper §5.4.2 and Algorithm 2): mapping query terms to merged posting
// lists, fanning the request out to at least k index servers, joining the
// returned shares by global element ID, decrypting with Shamir
// reconstruction, filtering false positives (elements of merged-in terms
// the user did not query), and ranking the survivors client-side.
//
// The network half is concurrent: a query asks the k servers it needs
// (k+1 under verification) in parallel, the first in preference order,
// and a failed request is replaced by the next server. A straggler is
// hedged: when the answers are not in after srtt + 4·rttvar (RFC 6298's
// timer over this client's own fan-out latencies, one estimate per call
// kind), one more server is asked, and the query completes as soon as k
// have answered. A cancelled straggler's call returns at once, but its
// server finishes it: the binary wire carries no cancellation, and the
// response is dropped unread. The compute half is one flat,
// single-goroutine pipeline that exact, verified and top-k retrieval
// share (join.go): each list's responses are joined through a
// pointer-free gid → row table into share columns, whole columns are
// reconstructed by one batch kernel (shamir.Reconstructor's
// ReconstructBatch), and decode, false-positive filtering and Stats
// counting happen in the same pass. At a few nanoseconds per element a
// worker pool costs more than it spreads, and nothing in the pipeline
// sorts shares. Nor does a warm query allocate by the element: its join
// columns and slots, its reconstruction scratch and the arena its
// per-term posting lists are cut from come from the client's pool and go
// back to it when the query returns (pipeline, in join.go), the
// servers' responses go back to posting's share pool once joined, and
// the ranker recycles its document table the same way. Those lists never
// leave the client: the search paths return ranking's fresh top-k slice,
// and Retrieve copies each term's postings into a slice the caller owns.
// Stats and results are the same whichever servers answer; Retrieve
// returns each term's postings in ascending (document, frequency) order,
// and the search paths skip even that, because ranking does not read the
// order.
package client

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/ranking"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// Errors returned by the client.
var (
	ErrTooFewServers = errors.New("client: fewer than k servers available")
	ErrNotEnough     = errors.New("client: could not reach k servers")
)

// Client is a querying user's handle on a Zerber cluster.
type Client struct {
	servers []transport.API
	k       int
	table   *merging.Table
	voc     *vocab.Vocabulary
	// xs are the servers' x-coordinates: xs[i] belongs to servers[i],
	// which is also column i of every join and bit i of every holder
	// mask.
	xs     []field.Element
	tuning Tuning
	// verify enables k+1 cross-checked retrieval (see EnableVerification).
	verify bool
	// recs caches Lagrange bases across queries, keyed by the set of
	// servers whose shares they consume (hot terms hit the same basis).
	recs recCache
	// joinMul keys the share join's hash (see newPipeline): random,
	// odd, never shown to a server.
	joinMul uint64
	// pipelines recycles the queries' join, decrypt and posting memory
	// (see pipeline).
	pipelines sync.Pool
	// pref is the order fan-outs try the servers in: their indices, a
	// server a hedge overtook moved to the end (see fanOutCall).
	pref atomic.Pointer[[]int]
	// wholeRTT and blockRTT time this client's whole-list fetches and
	// the first block rounds of its streamed top-k queries, whose sizes
	// differ by an order of magnitude: each sets its own hedge delay.
	wholeRTT, blockRTT rtt
}

// Stats describes one search. Its readers are the benchmark's per-layer
// counters, zerber-search -v and the tests.
type Stats struct {
	// ListsRequested is the number of distinct merged posting lists asked for.
	ListsRequested int
	// ElementsFetched counts decrypted elements, including false positives.
	ElementsFetched int
	// FalsePositives counts elements filtered out because their term ID
	// did not match any query term (§5.4.2: "filters out false
	// positives, i.e., elements for terms not queried").
	FalsePositives int
	// ServersQueried is how many servers contributed shares (>= k).
	ServersQueried int
	// ElementsVerified counts elements whose shares were cross-checked
	// against two k-subsets (verified retrieval only).
	ElementsVerified int
	// ReconstructorHits and ReconstructorMisses count Lagrange-basis
	// cache lookups for this query — one per distinct set of servers
	// whose shares were combined, per block round on the top-k path:
	// hits skip the O(k²) basis build, so a hot-term workload should
	// show hits approaching every query after the first.
	ReconstructorHits   int
	ReconstructorMisses int
	// TA instruments top-k retrieval (SearchTopK), on either of its
	// plans; zero for exact retrieval.
	TA ranking.TAStats
}

// New creates a client. servers are the index servers in preference
// order (a server a hedge overtakes moves to its end; see fanOutCall);
// at least k must be reachable per query. table and voc are the
// public mapping table and vocabulary distributed with it. A client
// addresses at most 64 servers (a join row records which of them hold
// the element in one uint64); New rejects more.
func New(servers []transport.API, k int, table *merging.Table, voc *vocab.Vocabulary) (*Client, error) {
	if k < 1 || len(servers) < k {
		return nil, fmt.Errorf("%w: k=%d, servers=%d", ErrTooFewServers, k, len(servers))
	}
	if len(servers) > maxServers {
		return nil, fmt.Errorf("client: %d servers, at most %d supported", len(servers), maxServers)
	}
	xs := make([]field.Element, len(servers))
	for i, s := range servers {
		x := s.XCoord()
		if x == 0 {
			return nil, errors.New("client: server with zero x-coordinate")
		}
		if slices.Contains(xs[:i], x) {
			return nil, fmt.Errorf("client: duplicate server x-coordinate %d", x)
		}
		xs[i] = x
	}
	c := &Client{servers: servers, k: k, table: table, voc: voc, xs: xs, joinMul: rand.Uint64() | 1}
	pref := make([]int, len(servers))
	for i := range pref {
		pref[i] = i
	}
	c.pref.Store(&pref)
	return c, nil
}

// SetTuning replaces the query-engine tuning (fan-out width, top-k
// block size). Call it before issuing queries; it is not synchronized
// with concurrent Retrieve calls.
func (c *Client) SetTuning(t Tuning) { c.tuning = t }

// Search runs a keyword query and returns the top-K accessible documents
// ranked by TF-IDF over the user's personalized collection statistics.
func (c *Client) Search(tok auth.Token, query []string, topK int) ([]ranking.ScoredDoc, Stats, error) {
	return c.SearchContext(context.Background(), tok, query, topK)
}

// SearchContext is Search bounded by ctx: cancelling it aborts the
// server fan-out and the decrypt stage.
func (c *Client) SearchContext(ctx context.Context, tok auth.Token, query []string, topK int) ([]ranking.ScoredDoc, Stats, error) {
	terms := dedup(query)
	p := c.newPipeline(terms)
	defer p.release()
	lists, _, _, err := p.wholeLists(ctx, tok, terms, false)
	if err != nil {
		return nil, p.stats, err
	}
	// Personalized collection statistics: ranking takes the collection
	// size and the document frequencies from the decrypted lists — the
	// documents this user can access.
	return ranking.TopK(lists, topK), p.stats, nil
}

// Retrieve performs the fetch-join-decrypt-filter pipeline and returns
// the decrypted postings grouped by query term: the lists Search ranks,
// each sorted, for the tests and benchmarks that check them.
func (c *Client) Retrieve(tok auth.Token, query []string) (map[string][]ranking.Posting, Stats, error) {
	return c.RetrieveContext(context.Background(), tok, query)
}

// RetrieveContext is Retrieve bounded by ctx. The fan-out asks k
// servers concurrently (see Tuning), hedges a straggler, and returns as
// soon as k have answered; ctx cancellation ends every in-flight server
// call. Each term's postings come back in ascending (document,
// frequency) order — a function of the set alone, not of which servers
// answered or how they lay a list out.
func (c *Client) RetrieveContext(ctx context.Context, tok auth.Token, query []string) (map[string][]ranking.Posting, Stats, error) {
	terms := dedup(query)
	p := c.newPipeline(terms)
	defer p.release()
	lists, _, _, err := p.wholeLists(ctx, tok, terms, false)
	if err != nil {
		return nil, p.stats, err
	}
	out := make(map[string][]ranking.Posting, len(terms))
	for ti, ps := range lists {
		if len(ps) == 0 {
			continue
		}
		// The list is cut from the pipeline's arena, sized for every row
		// of its merged list; the caller keeps a copy of the term's own
		// postings.
		ps = slices.Clone(ps)
		slices.SortFunc(ps, func(a, b ranking.Posting) int {
			return cmp.Compare(uint64(a.DocID)<<16|uint64(a.TF), uint64(b.DocID)<<16|uint64(b.TF))
		})
		out[terms[ti]] = ps
	}
	return out, p.stats, nil
}

// wholeLists is the whole-list pipeline behind exact retrieval and the
// whole-list plan of top-k: fetch the lists of terms (the terms p was
// made for) from k servers (k+1 under verification), one call each,
// then join, decrypt and filter list by list. It returns the surviving
// postings per term, indexed like terms, in join order and cut from p's
// arena, with the number of shares received and of rows joined. A
// global ID one server delivers twice fails the query, unless
// dropRedelivered (top-k's rule on both plans) keeps the first copy.
func (p *pipeline) wholeLists(ctx context.Context, tok auth.Token, terms []string, dropRedelivered bool) (lists [][]ranking.Posting, shares, rows int, err error) {
	if len(terms) == 0 {
		return nil, 0, 0, nil
	}
	c := p.c
	need := c.k
	if c.verify {
		need++
	}
	lids := c.table.ListsOf(terms)
	p.stats.ListsRequested = len(lids)

	responses, err := fanOutCall(ctx, c, need, nil, &c.wholeRTT, func(ctx context.Context, i int) (map[merging.ListID][]posting.EncryptedShare, error) {
		return c.servers[i].GetPostingLists(ctx, tok, lids)
	})
	if err != nil {
		return nil, 0, 0, err
	}
	// The responses are this query's alone (transport.API), and the join
	// copies what it needs of them: once every list is joined, their
	// share slices go back to posting's pool.
	defer func() {
		for _, r := range responses {
			for _, shares := range r.val {
				posting.PutShares(shares)
			}
		}
	}()
	p.stats.ServersQueried = len(responses)

	// Elements replicated on the k lowest responders share one Lagrange
	// basis, fetched from the cross-query cache (the §7.6 "700
	// elements/ms" fast path, amortized across repeated hot-term
	// queries). Verification cross-checks it against the basis over the
	// k highest responders: the two overlap in all but one server each.
	var responders uint64
	for _, r := range responses {
		responders |= 1 << uint(r.idx)
	}
	a, err := p.basisFor(responders)
	if err != nil {
		return nil, 0, 0, err
	}
	var check *basis
	if c.verify {
		if check, err = p.basisFor(responders &^ (responders & -responders)); err != nil {
			return nil, 0, 0, err
		}
	}

	lists = p.lists
	t := &p.join
	for _, lid := range lids {
		if err := ctx.Err(); err != nil {
			return nil, shares, rows, err
		}
		listShares := 0
		for _, r := range responses {
			listShares += len(r.val[lid])
		}
		shares += listShares
		t.reset(0, listShares)
		for _, r := range responses {
			if i := t.add(r.idx, r.val[lid]); i >= 0 && !dropRedelivered {
				return nil, shares, rows, errRedelivered(r.val[lid][i].GlobalID, lid, r.idx, c.xs[r.idx])
			}
		}
		rows += len(t.gids)
		// One cut per term, sized by its list's rows: a term's postings
		// all live in the one list it maps to.
		for ti, term := range terms {
			if c.table.ListOf(term) == lid {
				lists[ti] = p.cut(len(t.gids))
			}
		}
		if err := p.open(lid, a, check, lists); err != nil {
			return nil, shares, rows, err
		}
	}
	return lists, shares, rows, nil
}

// K returns the reconstruction threshold.
func (c *Client) K() int { return c.k }

func dedup(terms []string) []string {
	seen := make(map[string]struct{}, len(terms))
	out := make([]string, 0, len(terms))
	for _, t := range terms {
		if t == "" {
			continue
		}
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	return out
}
