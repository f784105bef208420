// Package peer implements a Zerber document owner's machine: the trusted
// desktop or local web server that hosts the shared documents, keeps a
// local inverted index over them (§7.2), pushes encrypted posting
// elements to the n index servers — immediately or in correlation-hiding
// batches (§5.4.1) — and serves result snippets to authorized searchers
// (§5.4.2).
package peer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/invindex"
	"zerber/internal/journal"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/shamir"
	"zerber/internal/textproc"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// Document is one shared document hosted by the peer.
type Document struct {
	ID      uint32
	Name    string
	Content string
	Group   auth.GroupID
}

// elemRef remembers where one posting element lives in the central index
// so the owner can update and delete it later. The local index "includes
// the global ID of each element" (§7.2).
type elemRef struct {
	list merging.ListID
	gid  posting.GlobalID
	tf   uint16
}

// Errors returned by peer operations.
var (
	ErrUnknownDoc = errors.New("peer: unknown document")
	ErrDocIDRange = errors.New("peer: document ID exceeds packed width")
)

// Config configures a peer.
type Config struct {
	// Name labels the peer (the "site" in the paper's terminology).
	Name string
	// Servers are the n index servers; inserts go to all of them.
	Servers []transport.API
	// K is the reconstruction threshold used when splitting elements.
	K int
	// Table is the public mapping table (term -> merged posting list).
	Table *merging.Table
	// Vocab is the public vocabulary that yields term IDs.
	Vocab *vocab.Vocabulary
	// Rand supplies randomness for sharing polynomials and global IDs.
	// nil means a crypto-seeded buffered DRBG (field.ShareSource); tests
	// inject a deterministic source.
	Rand io.Reader
	// JournalPath, when non-empty, persists every mutation through a
	// journal at that path (package journal): payloads are fsynced
	// before the first network send, per-server acknowledgements are
	// recorded, and reopening a peer on the same path restores its
	// document state and the in-flight operations for Recover. Empty
	// means mutations are tracked in memory only (retryable within the
	// process, lost on crash).
	JournalPath string
	// Sim injects simulation-only behavior (kill points, re-enabled bug
	// shapes, one-server-at-a-time stages) into the mutation engine. It
	// must be nil outside the model checker (internal/sim) and its tests.
	Sim *SimHooks
}

// SimHooks are the mutation engine's simulation hooks: injection points
// the deterministic cluster simulator uses to place crashes at exact
// protocol positions and to prove its checker is not vacuous. They are
// test instrumentation, never part of the production configuration.
// A non-nil SimHooks, even an empty one, also makes the engine send each
// stage to one server at a time, in server order: one sequence of calls.
type SimHooks struct {
	// BeforeStage runs after one server's call returned and before the
	// stage is sent to the next; a non-nil error aborts the dispatch
	// there — a deterministic kill point between any two protocol steps.
	BeforeStage func(opID uint64, stage uint8, server int) error
	// SkipDeleteReplay re-enables a known bug shape for the checker's
	// mutation-smoke test: operations restored from the journal skip
	// their delete stage during recovery, orphaning the superseded
	// elements exactly as an unjournaled update interrupted between
	// stages would.
	SkipDeleteReplay bool
}

// Peer is one document owner's machine. It is safe for concurrent use.
type Peer struct {
	cfg      Config
	splitter *shamir.Splitter // validated once against the servers' x-coordinates
	crypto   bool             // cfg.Rand was nil: crypto randomness
	rngPool  sync.Pool        // *field.ShareSource per concurrent caller

	mu    sync.RWMutex
	docs  map[uint32]Document
	refs  map[uint32]map[string]elemRef // docID -> term -> central element
	local *invindex.Index

	// The mutation engine (engine.go): pmu serializes mutations, pending
	// holds operations whose dispatch has not completed, jn is the
	// optional crash-safe journal behind them.
	pmu     sync.Mutex
	pending []*mutOp
	jn      *journal.Journal
}

// New validates the configuration and returns a peer.
func New(cfg Config) (*Peer, error) {
	if cfg.K < 1 || len(cfg.Servers) < cfg.K {
		return nil, fmt.Errorf("peer: need 1 <= k <= n, got k=%d n=%d", cfg.K, len(cfg.Servers))
	}
	if cfg.Table == nil || cfg.Vocab == nil {
		return nil, errors.New("peer: Table and Vocab are required")
	}
	sp, err := shamir.NewSplitter(cfg.K, serverXs(cfg.Servers))
	if err != nil {
		return nil, fmt.Errorf("peer: server x-coordinates: %w", err)
	}
	p := &Peer{
		cfg:      cfg,
		splitter: sp,
		crypto:   cfg.Rand == nil,
		docs:     make(map[uint32]Document),
		refs:     make(map[uint32]map[string]elemRef),
		local:    invindex.New(),
	}
	p.rngPool.New = func() any { return field.NewShareSource(nil) }
	if cfg.JournalPath != "" {
		if len(cfg.Servers) > journal.MaxServers {
			return nil, fmt.Errorf("peer: journaling supports at most %d servers, got %d",
				journal.MaxServers, len(cfg.Servers))
		}
		jn, states, err := journal.Open(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("peer: opening journal: %w", err)
		}
		for _, st := range states {
			if st.Op.Servers != len(cfg.Servers) {
				jn.Close()
				return nil, fmt.Errorf("peer: journal %s was written for %d servers, peer has %d",
					cfg.JournalPath, st.Op.Servers, len(cfg.Servers))
			}
			if st.Done {
				// Completed operations rebuild the local document state
				// in mutation order.
				p.applyLocal(&mutOp{op: st.Op})
			} else {
				p.pending = append(p.pending, &mutOp{
					op: st.Op, insertAcks: st.InsertAcks, deleteAcks: st.DeleteAcks,
					journaled: true, // it came from the journal
					restored:  true,
				})
			}
		}
		p.jn = jn
	}
	return p, nil
}

// acquireRand hands the caller an entropy source for one operation. In
// crypto mode each call gets a pooled DRBG of its own, so concurrent
// IndexDocument/Batch calls never share generator state; with an
// injected deterministic Rand the configured reader itself is returned
// (its consumers all run sequentially).
func (p *Peer) acquireRand() (io.Reader, func()) {
	if !p.crypto {
		return p.cfg.Rand, func() {}
	}
	src := p.rngPool.Get().(*field.ShareSource)
	return src, func() { p.rngPool.Put(src) }
}

// Local exposes the peer's local inverted index (useful for local search
// and for harvesting document-frequency statistics).
func (p *Peer) Local() *invindex.Index { return p.local }

// Document returns a hosted document.
func (p *Peer) Document(id uint32) (Document, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	d, ok := p.docs[id]
	return d, ok
}

// NumDocs returns the number of hosted documents.
func (p *Peer) NumDocs() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.docs)
}

// DocIDs returns the IDs of all hosted documents in ascending order —
// e.g. for a site daemon reconciling a journal-restored peer against
// its current document directory.
func (p *Peer) DocIDs() []uint32 {
	p.mu.RLock()
	ids := make([]uint32, 0, len(p.docs))
	for id := range p.docs {
		ids = append(ids, id)
	}
	p.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Snippet serves the result snippet for a hosted document if the
// requesting user belongs to the document's group — the peer-side check
// of §5.4.2's snippet fetch. groupsOf is the caller's verified group set.
func (p *Peer) Snippet(docID uint32, query []string, width int, groupsOf auth.GroupSet) (string, error) {
	p.mu.RLock()
	doc, ok := p.docs[docID]
	p.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("%w: %d", ErrUnknownDoc, docID)
	}
	if !groupsOf.Has(doc.Group) {
		return "", fmt.Errorf("peer: document %d: access denied", docID)
	}
	return textproc.Snippet(doc.Content, query, width), nil
}

// IndexDocument indexes (or re-indexes) a document immediately as one
// journaled mutation pushed to all servers. For the correlation-
// resistant path, use a Batch instead. Re-indexing a known document is
// an update: stale central elements are removed after the fresh ones
// are in place.
func (p *Peer) IndexDocument(tok auth.Token, doc Document) error {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if err := p.drainPending(tok); err != nil {
		return err
	}
	return p.mutateDoc(tok, doc)
}

// DeleteDocument removes a document: every central element is deleted
// individually (document IDs are encrypted, §7.3) in one journaled
// delete-stage mutation, then the local state.
func (p *Peer) DeleteDocument(tok auth.Token, docID uint32) error {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if err := p.drainPending(tok); err != nil {
		return err
	}
	p.mu.RLock()
	refs, ok := p.refs[docID]
	dels := make([]journal.Del, 0, len(refs))
	for _, ref := range refs {
		dels = append(dels, journal.Del{List: uint32(ref.list), GID: uint64(ref.gid)})
	}
	p.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDoc, docID)
	}
	opID, err := p.newOpID()
	if err != nil {
		return err
	}
	m := &mutOp{op: journal.Op{
		ID:      opID,
		Kind:    journal.KindDelete,
		Servers: len(p.cfg.Servers),
		Removed: []uint32{docID},
		Dels:    dels,
	}}
	if err := p.beginOp(m); err != nil {
		return err
	}
	return p.drainPending(tok)
}

// UpdateDocument re-indexes a changed document, sending "only the
// necessary updates" (§5.4.1): unchanged (term, tf) elements are left
// alone; new or changed terms are inserted on every server first, and
// only then are the superseded elements deleted, so an interrupted
// update never loses the old postings — at worst both generations are
// present until the operation (journaled, retryable) completes. The
// document's group must be unchanged — unchanged elements keep their
// stored group tag; to move a document between groups, delete and
// re-index it.
func (p *Peer) UpdateDocument(tok auth.Token, doc Document) error {
	return p.IndexDocument(tok, doc)
}

// mutateDoc builds and runs the journaled operation for indexing or
// updating one document. The complete encrypted payload is constructed
// before anything is sent: a payload-construction failure (ID out of
// range, entropy failure) returns with the index untouched. Callers
// hold pmu with no pending operations.
func (p *Peer) mutateDoc(tok auth.Token, doc Document) error {
	newCounts := textproc.TermCounts(doc.Content)

	// Diff against the committed refs. An unknown document is the empty
	// diff base: everything is new, nothing is deleted.
	p.mu.RLock()
	oldRefs := p.refs[doc.ID]
	keep := make(map[string]elemRef, len(newCounts))
	var dels []journal.Del
	for term, ref := range oldRefs {
		if c, still := newCounts[term]; still && posting.ClampTF(c) == ref.tf {
			keep[term] = ref // identical element; no network traffic
			continue
		}
		dels = append(dels, journal.Del{List: uint32(ref.list), GID: uint64(ref.gid)})
	}
	p.mu.RUnlock()

	var toInsert []string
	for term := range newCounts {
		if _, kept := keep[term]; !kept {
			toInsert = append(toInsert, term)
		}
	}
	sort.Strings(toInsert)

	rng, release := p.acquireRand()
	var st staged
	refs, err := st.addDoc(p, doc, newCounts, toInsert, rng)
	if err != nil {
		release()
		return err
	}
	shares, err := p.encryptStaged(&st, rng)
	release()
	if err != nil {
		return fmt.Errorf("peer: encrypting doc %d: %w", doc.ID, err)
	}
	for term, ref := range refs {
		keep[term] = ref
	}

	opID, err := p.newOpID()
	if err != nil {
		return err
	}
	kind := journal.KindIndex
	if len(dels) > 0 {
		kind = journal.KindUpdate
	}
	m := &mutOp{
		op: journal.Op{
			ID:      opID,
			Kind:    kind,
			Servers: len(p.cfg.Servers),
			Elems:   buildElems(&st, shares),
			Dels:    dels,
		},
		commitDocs:   []Document{doc},
		commitRefs:   []map[string]elemRef{keep},
		commitCounts: []map[string]int{newCounts},
	}
	if p.jn != nil {
		// The journaled post-state (with its deterministic sorted-ref
		// encoding) is only built when there is a journal to hold it.
		m.op.Docs = []journal.DocState{docState(doc, keep)}
	}
	if err := p.beginOp(m); err != nil {
		return err
	}
	return p.drainPending(tok)
}

// staged is the cleartext half of the indexing pipeline: parallel
// per-element arrays accumulated document by document, then split into
// per-server share buffers in one batched pass. Staging is cheap
// (vocabulary lookups and global-ID draws); all field arithmetic is
// deferred to encryptStaged.
type staged struct {
	elems  []posting.Element
	gids   []posting.GlobalID
	lids   []merging.ListID
	groups []uint32
}

// addDoc stages every listed term of doc and returns the element
// references to remember. On error the staged state is unchanged.
func (st *staged) addDoc(p *Peer, doc Document, counts map[string]int, terms []string, rng io.Reader) (map[string]elemRef, error) {
	if doc.ID > posting.MaxDocID {
		return nil, fmt.Errorf("%w: %d", ErrDocIDRange, doc.ID)
	}
	base := len(st.elems)
	refs := make(map[string]elemRef, len(terms))
	for _, term := range terms {
		elem := posting.Element{
			DocID:  doc.ID,
			TermID: p.cfg.Vocab.Resolve(term),
			TF:     posting.ClampTF(counts[term]),
		}
		gid, err := randomGlobalID(rng)
		if err != nil {
			st.truncate(base)
			return nil, fmt.Errorf("peer: generating element ID: %w", err)
		}
		// Carry the element's impact bucket in the public ID so servers
		// can keep the list score-ordered without seeing the TF (§6).
		gid = posting.TagImpact(gid, posting.ImpactBucket(elem.TF))
		lid := p.cfg.Table.ListOf(term)
		st.elems = append(st.elems, elem)
		st.gids = append(st.gids, gid)
		st.lids = append(st.lids, lid)
		st.groups = append(st.groups, uint32(doc.Group))
		refs[term] = elemRef{list: lid, gid: gid, tf: elem.TF}
	}
	return refs, nil
}

func (st *staged) truncate(n int) {
	st.elems = st.elems[:n]
	st.gids = st.gids[:n]
	st.lids = st.lids[:n]
	st.groups = st.groups[:n]
}

func (st *staged) reset() { st.truncate(0) }

// drop discards the first n staged elements (a committed prefix).
func (st *staged) drop(n int) {
	st.elems = st.elems[n:]
	st.gids = st.gids[n:]
	st.lids = st.lids[n:]
	st.groups = st.groups[n:]
}

// encryptChunk caps the element count of one EncryptBatchInto call, so
// the call's scratch stays a fixed size however large the document.
const encryptChunk = 512

// encTask is one contiguous same-group window of staged elements.
type encTask struct {
	lo, hi int
	group  uint32
}

// chunkTasks cuts the staged elements into same-group windows of at most
// encryptChunk elements. Group runs are respected because every share of
// a window carries one group tag.
func chunkTasks(groups []uint32) []encTask {
	var tasks []encTask
	for lo := 0; lo < len(groups); {
		hi := lo + 1
		for hi < len(groups) && groups[hi] == groups[lo] && hi-lo < encryptChunk {
			hi++
		}
		tasks = append(tasks, encTask{lo: lo, hi: hi, group: groups[lo]})
		lo = hi
	}
	return tasks
}

// encryptStaged splits every staged element into n per-server share
// rows backed by a single allocation: out[i][e] is server i's share of
// st.elems[e].
func (p *Peer) encryptStaged(st *staged, rng io.Reader) ([][]posting.EncryptedShare, error) {
	n := len(p.cfg.Servers)
	total := len(st.elems)
	flat := make([]posting.EncryptedShare, n*total)
	dst := make([][]posting.EncryptedShare, n)
	for i := range dst {
		dst[i] = flat[i*total : (i+1)*total : (i+1)*total]
	}
	for _, t := range chunkTasks(st.groups) {
		if err := posting.EncryptBatchInto(p.splitter, st.elems[t.lo:t.hi],
			st.gids[t.lo:t.hi], t.group, rng, dst, t.lo); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// Batch accumulates the elements of several documents and flushes them in
// one shuffled insert per server, hiding which elements co-occur in one
// document from an adversary watching updates (§5.4.1).
//
// Add only stages cleartext elements (term IDs, counts, fresh global
// IDs); all share generation is deferred to Flush, where one batched
// pass splits every staged element of every queued document into one
// journaled operation. A batch is not safe for concurrent use; the peer
// it flushes into is.
type Batch struct {
	peer   *Peer
	st     staged
	docs   []Document
	counts []map[string]int
	refs   []map[string]elemRef
	// m is the journaled operation of a failed Flush; opElems/opDocs
	// count how much of the staged state its payload already covers. A
	// retried Flush must resend byte-identical shares: re-encrypting
	// with fresh randomness could leave servers that persisted the
	// first attempt holding shares of a different polynomial than
	// servers reached only by the retry, which k-of-n reconstruction
	// would silently combine into garbage. Elements staged after the
	// failure (Add between retries) are encrypted separately and
	// appended to the operation's payload.
	m       *mutOp
	opElems int
	opDocs  int
}

// NewBatch starts an empty batch.
func (p *Peer) NewBatch() *Batch {
	return &Batch{peer: p}
}

// Add stages a document's elements into the batch. Nothing is encrypted
// or sent until Flush.
func (b *Batch) Add(doc Document) error {
	counts := textproc.TermCounts(doc.Content)
	terms := make([]string, 0, len(counts))
	for term := range counts {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	rng, release := b.peer.acquireRand()
	defer release()
	refs, err := b.st.addDoc(b.peer, doc, counts, terms, rng)
	if err != nil {
		return err
	}
	b.docs = append(b.docs, doc)
	b.counts = append(b.counts, counts)
	b.refs = append(b.refs, refs)
	return nil
}

// Len returns the number of documents queued in the batch.
func (b *Batch) Len() int { return len(b.docs) }

// Elements returns the number of posting elements queued per server.
func (b *Batch) Elements() int { return len(b.st.elems) }

// Flush runs the batch as one journaled operation: the staged elements
// are encrypted into the operation's payload, persisted (with a journal
// configured) before the first send, dispatched to every server under a
// fresh whole-payload shuffle, and committed locally once all servers
// acknowledge. A Flush that fails part-way may be retried: the
// encrypted shares are kept in the operation and resent byte-identical
// (under a fresh shuffle, so a tranche added between attempts is still
// mixed in), servers that already acknowledged are skipped, and the
// operation ID lets servers deduplicate redeliveries, so retries are
// exactly-once in effect.
func (b *Batch) Flush(tok auth.Token) error {
	p := b.peer
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if b.m != nil && !p.isPending(b.m) {
		// A later mutation's drain already completed the batch's
		// operation; only elements staged since (if any) still need an
		// operation of their own. The committed prefix is dropped
		// entirely: the completed operation already installed those
		// documents, and they may have been mutated again since (the
		// drain that completed the operation ran inside a newer
		// mutation) — re-committing their batch-era state from here
		// would resurrect stale content and refs. Found by the model
		// checker (internal/sim), pinned by TestBatchRetryAfterDocMutated.
		b.m = nil
		if b.opDocs == len(b.docs) && b.opElems == len(b.st.elems) {
			b.docs, b.counts, b.refs = nil, nil, nil
			b.opElems, b.opDocs = 0, 0
			b.st.reset()
			return nil
		}
		b.docs = b.docs[b.opDocs:]
		b.counts = b.counts[b.opDocs:]
		b.refs = b.refs[b.opDocs:]
		b.st.drop(b.opElems)
		b.opElems, b.opDocs = 0, 0
	}
	if b.m == nil {
		if len(b.docs) == 0 {
			return nil
		}
		// Older failed mutations must converge before a new operation
		// starts (they may address the same documents).
		if err := p.drainPending(tok); err != nil {
			return err
		}
	}
	if err := b.syncOp(); err != nil {
		return err
	}
	if err := p.drainPending(tok); err != nil {
		return err
	}
	b.docs, b.counts, b.refs, b.m = nil, nil, nil, nil
	b.opElems, b.opDocs = 0, 0
	b.st.reset()
	return nil
}

// syncOp creates the batch's journaled operation on first Flush and
// extends its payload with any elements and documents staged since —
// all of them on a first Flush, only the fresh tranche on a retry.
// Already encrypted elements are never regenerated, preserving
// byte-identical resends; an extension clears the insert
// acknowledgements, because servers that acknowledged the smaller
// payload have not seen the new tranche (their re-send converges by
// upsert). Callers hold pmu.
func (b *Batch) syncOp() error {
	p := b.peer
	created := false
	if b.m == nil {
		opID, err := p.newOpID()
		if err != nil {
			return err
		}
		b.m = &mutOp{op: journal.Op{
			ID:      opID,
			Kind:    journal.KindIndex,
			Servers: len(p.cfg.Servers),
		}}
		created = true
	}
	// Any payload growth counts as an extension — including documents
	// that stage no elements (empty or out-of-vocabulary content),
	// whose journaled DocStates must still reach the op record.
	extended := !created && (len(b.st.elems) > b.opElems || len(b.docs) > b.opDocs)
	if len(b.st.elems) > b.opElems {
		sub := staged{
			elems:  b.st.elems[b.opElems:],
			gids:   b.st.gids[b.opElems:],
			lids:   b.st.lids[b.opElems:],
			groups: b.st.groups[b.opElems:],
		}
		rng, release := p.acquireRand()
		shares, err := p.encryptStaged(&sub, rng)
		release()
		if err != nil {
			if created {
				b.m = nil
			}
			return fmt.Errorf("peer %s: batch encrypt: %w", p.cfg.Name, err)
		}
		b.m.op.Elems = append(b.m.op.Elems, buildElems(&sub, shares)...)
		b.opElems = len(b.st.elems)
	}
	if p.jn != nil {
		for i := b.opDocs; i < len(b.docs); i++ {
			b.m.op.Docs = append(b.m.op.Docs, docState(b.docs[i], b.refs[i]))
		}
	}
	b.opDocs = len(b.docs)
	b.m.commitDocs, b.m.commitRefs, b.m.commitCounts = b.docs, b.refs, b.counts
	if created {
		return p.beginOp(b.m)
	}
	if extended {
		// Earlier insert acks cover a smaller payload and no longer
		// count, and the journaled op record is stale. Marking the op
		// un-journaled (rather than calling Begin here) makes the
		// re-Begin — which replaces the payload and clears the
		// journaled acks to match, see journal.Open — happen in
		// dispatch, where it is retried on every drain until it
		// sticks; a transient Begin failure here would otherwise never
		// be retried, leaving the journal with the smaller payload
		// forever.
		b.m.insertAcks = 0
		b.m.journaled = false
	}
	return nil
}

func serverXs(servers []transport.API) []field.Element {
	xs := make([]field.Element, len(servers))
	for i, s := range servers {
		xs[i] = s.XCoord()
	}
	return xs
}

// randomGlobalID draws a uniformly random 64-bit element ID from r. The
// paper requires IDs unique within a posting list; with independent
// owners a 64-bit random draw makes collisions negligible without
// coordination.
func randomGlobalID(r io.Reader) (posting.GlobalID, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return posting.GlobalID(binary.LittleEndian.Uint64(buf[:])), nil
}

// randomPerm returns a uniformly random permutation of [0, n):
// Fisher-Yates, each index a 64-bit draw from r reduced by multiply-shift
// (bias below 2^-32). The peer's r is its DRBG, so the §5.4.1 shuffle is
// as unpredictable as the shares it orders. All draws are read before
// the first swap: a failed read yields no permutation, never a partial one.
func randomPerm(r io.Reader, n int) ([]int, error) {
	draws := make([]byte, 8*max(n-1, 0))
	if _, err := io.ReadFull(r, draws); err != nil {
		return nil, err
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j, _ := bits.Mul64(binary.LittleEndian.Uint64(draws[8*(i-1):]), uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm, nil
}

func sortDeleteOps(ops []transport.DeleteOp) {
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].List != ops[j].List {
			return ops[i].List < ops[j].List
		}
		return ops[i].ID < ops[j].ID
	})
}
