package client

import (
	"fmt"
	"math/bits"
	"slices"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/ranking"
	"zerber/internal/shamir"
)

// maxServers is the width of a row's holder mask, and so the most index
// servers one client can address.
const maxServers = 64

// joinTable is the per-list join step of Algorithm 2 as flat columns:
// one row per global element ID, one share column per server of the
// client (column i = servers[i], whether or not it answered), and a
// holder mask saying which columns are filled. Rows are found through an
// open-addressing gid → row table of plain integers, so a join of any
// size is a fixed handful of pointer-free slices — nothing per element
// for the allocator to make or the collector to trace — and row order is
// first-delivery order: no sort runs over the shares. (A pre-sized
// map[GlobalID]uint32 in its place is as pointer-free and costs the
// synthetic search of BenchmarkRetrieveJoinRank 80 ns per element
// against 50.)
type joinTable struct {
	w     int                // columns per row
	mul   uint64             // the client's secret hash multiplier, odd
	shift uint               // 64 - log2(len(slots))
	slots []uint32           // gid hash → row+1, 0 = empty; len is a power of two
	gids  []posting.GlobalID // row → element
	ys    []field.Element    // row-major, w per row
	held  []uint64           // row → bit c set when column c holds a share
}

// reset prepares the table for up to more further rows. The first keep
// rows survive (top-k's under-replicated elements wait here for a later
// window); everything after them is dropped.
func (t *joinTable) reset(keep, more int) {
	t.gids, t.ys, t.held = t.gids[:keep], t.ys[:keep*t.w], t.held[:keep]
	// Load factor at most 1/2, so probe chains stay short and a free
	// slot always ends one.
	size := 16
	for size < 2*(keep+more) {
		size *= 2
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if size > cap(t.slots) {
		t.slots = make([]uint32, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	for row, gid := range t.gids {
		t.slots[t.probe(gid)] = uint32(row + 1)
	}
}

// probe returns gid's slot: the one holding its row, or the free slot
// where that row belongs. The hash is multiply-shift under the client's
// random odd multiplier — universal over any set of IDs chosen without
// knowing it.
func (t *joinTable) probe(gid posting.GlobalID) int {
	mask := len(t.slots) - 1
	i := int(uint64(gid) * t.mul >> t.shift)
	for t.slots[i] != 0 && t.gids[t.slots[i]-1] != gid {
		i = (i + 1) & mask
	}
	return i
}

// add files one server's shares of the list under column col, creating
// rows for elements not seen before. A share for a cell that is already
// filled — the server delivered one element twice — is dropped; add
// returns the index in shares of the first such redelivery, or -1.
func (t *joinTable) add(col int, shares []posting.EncryptedShare) (redelivered int) {
	redelivered = -1
	bit := uint64(1) << uint(col)
	for i, sh := range shares {
		slot := t.probe(sh.GlobalID)
		row := int(t.slots[slot]) - 1
		if row < 0 {
			row = len(t.gids)
			if row == cap(t.gids) {
				// Size once for the rest of this server's shares: the
				// first server's list makes every row it needs in one
				// step, later ones add rows only where servers differ.
				n := len(shares) - i
				t.gids, t.held, t.ys = slices.Grow(t.gids, n), slices.Grow(t.held, n), slices.Grow(t.ys, n*t.w)
			}
			t.slots[slot] = uint32(row + 1)
			t.gids = append(t.gids, sh.GlobalID)
			t.held = append(t.held, 0)
			for c := 0; c < t.w; c++ {
				t.ys = append(t.ys, 0)
			}
		}
		if t.held[row]&bit != 0 {
			if redelivered < 0 {
				redelivered = i
			}
			continue
		}
		t.held[row] |= bit
		t.ys[row*t.w+col] = sh.Y
	}
	return redelivered
}

// pipeline is the per-query state of join → decrypt → filter, shared by
// exact, verified and top-k retrieval, and the query's reusable memory:
// the join's columns and slots, the reconstruction scratch and the arena
// the per-term posting lists are cut from. A query takes one from the
// client's pool (newPipeline) and gives it back (release) once it has
// ranked or copied its lists, so a search in steady state allocates none
// of this; no list cut from the arena outlives its query. Everything in
// it lives for one query on one goroutine; concurrent queries share only
// the client's basis cache.
type pipeline struct {
	c *Client
	// stats is the query's Stats, which its caller returns by value
	// before the pipeline goes back to the pool.
	stats Stats
	// wanted holds the query terms' IDs, indexed like the terms. A query
	// has a handful of terms, so finding an element's term is a scan of
	// a few words, cheaper than hashing into a map once per element.
	wanted []uint32
	// bases are the Lagrange bases fetched so far in this round of this
	// query, so the cache is consulted once per responder set rather
	// than once per element.
	bases   []*basis
	join    joinTable
	secrets []field.Element // scratch: one reconstruction per row, per batch basis
	lists   [][]ranking.Posting
	// posts is the arena: its length is what this query has cut so far.
	posts []ranking.Posting
}

// newPipeline takes a pipeline from the client's pool for a query of
// terms, its stats zeroed.
func (c *Client) newPipeline(terms []string) *pipeline {
	p, _ := c.pipelines.Get().(*pipeline)
	if p == nil {
		// The global IDs a join hashes are chosen by the servers, so the
		// hash is keyed: a server that knew the multiplier could send IDs
		// that all probe from one slot and turn the join quadratic.
		p = &pipeline{c: c, join: joinTable{w: len(c.servers), mul: c.joinMul}}
	}
	p.stats = Stats{}
	p.wanted = p.wanted[:0]
	for _, term := range terms {
		p.wanted = append(p.wanted, c.voc.Resolve(term))
	}
	p.lists = slices.Grow(p.lists[:0], len(terms))[:len(terms)]
	clear(p.lists)
	p.posts = p.posts[:0]
	return p
}

// release returns p to the client's pool. Nothing p's query returned
// may point into it.
func (p *pipeline) release() {
	clear(p.bases)
	p.bases = p.bases[:0]
	clear(p.lists) // they may hold an arena the query outgrew
	p.c.pipelines.Put(p)
}

// cut returns an empty posting list of capacity n from the arena. When
// the arena is used up it is replaced by a larger one: the lists already
// cut keep the old one alive until the query ends, and the next query
// starts on the new one.
func (p *pipeline) cut(n int) []ranking.Posting {
	used := len(p.posts)
	if used+n > cap(p.posts) {
		p.posts, used = make([]ranking.Posting, 0, 2*cap(p.posts)+n), 0
	}
	p.posts = p.posts[:used+n]
	return p.posts[used : used : used+n]
}

// basisFor returns the basis over the k lowest-indexed servers in held.
func (p *pipeline) basisFor(held uint64) (*basis, error) {
	for n := bits.OnesCount64(held); n > p.c.k; n-- {
		held &^= 1 << uint(bits.Len64(held)-1)
	}
	for _, b := range p.bases {
		if b.held == held {
			return b, nil
		}
	}
	b, hit, err := p.c.recs.get(held, p.c.xs)
	if err != nil {
		return nil, fmt.Errorf("client: building reconstructor: %w", err)
	}
	if hit {
		p.stats.ReconstructorHits++
	} else {
		p.stats.ReconstructorMisses++
	}
	p.bases = append(p.bases, b)
	return b, nil
}

// open decrypts list lid's joined rows and appends every posting of a
// queried term to that term's slice of out, in row order. Rows holding all of basis a's
// columns are reconstructed in one batch; when check is non-nil
// (verified retrieval) rows that also hold all of its columns are
// reconstructed a second time and the two secrets must agree. A row that
// k other servers hold takes the basis for its own holder mask, and a
// row held by fewer than k is not decryptable: those rows — and only
// those — are left in the join, moved to its front, for the caller to keep or
// drop. False positives (elements of merged-in terms nobody queried,
// §5.4.2) are counted and discarded here.
func (p *pipeline) open(lid merging.ListID, a, check *basis, out [][]ranking.Posting) error {
	t := &p.join
	rows, w, k := len(t.gids), t.w, p.c.k
	batches := 1
	if check != nil {
		batches = 2
	}
	if cap(p.secrets) < batches*rows {
		p.secrets = make([]field.Element, batches*rows)
	}
	secA, secB := p.secrets[:rows], p.secrets[rows:batches*rows]
	if err := a.rec.ReconstructBatch(secA, t.ys, w, a.cols); err != nil {
		return err
	}
	if check != nil {
		if err := check.rec.ReconstructBatch(secB, t.ys, w, check.cols); err != nil {
			return err
		}
	}
	left := 0
	for row, held := range t.held {
		var secret field.Element
		switch {
		case held&a.held == a.held:
			secret = secA[row]
			if check != nil && held&check.held == check.held {
				if secB[row] != secret {
					return fmt.Errorf("%w (element %d, list %d)", ErrCorruptShare, t.gids[row], lid)
				}
				p.stats.ElementsVerified++
			}
		case check != nil && held&check.held == check.held:
			secret = secB[row]
		case bits.OnesCount64(held) >= k:
			b, err := p.basisFor(held)
			if err != nil {
				return err
			}
			if err := b.rec.ReconstructBatch(secA[row:row+1], t.ys[row*w:(row+1)*w], w, b.cols); err != nil {
				return err
			}
			secret = secA[row]
		default:
			// Not replicated on enough of the servers heard from (e.g.
			// mid-batch): keep it aside rather than mis-decrypt.
			t.gids[left], t.held[left] = t.gids[row], held
			copy(t.ys[left*w:(left+1)*w], t.ys[row*w:(row+1)*w])
			left++
			continue
		}
		p.stats.ElementsFetched++
		e := posting.Decode(secret)
		if term := slices.Index(p.wanted, e.TermID); term >= 0 {
			out[term] = append(out[term], ranking.Posting{DocID: e.DocID, TF: e.TF})
		} else {
			p.stats.FalsePositives++
		}
	}
	t.gids, t.ys, t.held = t.gids[:left], t.ys[:left*w], t.held[:left]
	return nil
}

// errRedelivered is the one rule for a server that returns a global ID
// twice in a whole-list response: the query fails, because two shares at
// one x can never enter one reconstruction and nothing says which of
// them is the element's.
func errRedelivered(gid posting.GlobalID, lid merging.ListID, server int, x field.Element) error {
	return fmt.Errorf("client: element %d of list %d delivered twice by server %d (x=%d): %w",
		gid, lid, server, x, shamir.ErrDuplicateX)
}
