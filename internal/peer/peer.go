// Package peer implements a Zerber document owner's machine: the trusted
// desktop or local web server that hosts the shared documents, keeps
// their local index (§7.2: per document, each term's list, global ID and
// tf), pushes encrypted posting elements to the n index servers —
// immediately or in correlation-hiding batches (§5.4.1) — and serves
// result snippets to authorized searchers (§5.4.2). Every write, single
// or batched, goes through one builder that diffs the documents against
// the local index and their groups, so only the necessary updates are
// sent (§5.4.1).
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
	ErrUnknownDoc   = errors.New("peer: unknown document")
	ErrDocIDRange   = errors.New("peer: document ID exceeds packed width")
	ErrAccessDenied = errors.New("peer: access denied") // the caller is not in the document's group
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

	mu   sync.RWMutex
	docs map[uint32]Document
	refs map[uint32]map[string]elemRef // docID -> term -> central element

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
		return "", fmt.Errorf("%w: document %d", ErrAccessDenied, docID)
	}
	return textproc.Snippet(doc.Content, query, width), nil
}

// IndexDocument indexes (or re-indexes) a document immediately as one
// journaled mutation pushed to all servers. For the correlation-
// resistant path, use a Batch instead. Re-indexing a known document is
// an update (see UpdateDocument).
func (p *Peer) IndexDocument(tok auth.Token, doc Document) error {
	_, err := p.mutate(tok, []Document{doc}, []map[string]int{textproc.TermCounts(doc.Content)}, nil)
	return err
}

// DeleteDocument removes a document: every central element is deleted
// individually (document IDs are encrypted, §7.3) in one journaled
// delete-stage mutation, then the local state.
func (p *Peer) DeleteDocument(tok auth.Token, docID uint32) error {
	_, err := p.mutate(tok, nil, nil, []uint32{docID})
	return err
}

// UpdateDocument re-indexes a changed document, sending "only the
// necessary updates" (§5.4.1): unchanged (term, tf) elements are left
// alone; new or changed terms are inserted on every server first, and
// only then are the superseded elements deleted, so an interrupted
// update never loses the old postings — at worst both generations are
// present until the operation (journaled, retryable) completes. Every
// stored element carries its document's group tag, so a document moved
// to another group has all of its elements resent under the new group
// and the old ones deleted.
func (p *Peer) UpdateDocument(tok auth.Token, doc Document) error {
	return p.IndexDocument(tok, doc)
}

// mutate is the peer's one write path: every IndexDocument,
// UpdateDocument, DeleteDocument and Batch.Flush is one operation built
// here. It first drains older pending operations (they may address the
// same documents), then builds the operation, begins it and drains it.
// queued reports that the operation was begun: from then on it is
// pending like any other, and a failed send is resent byte-identical by
// the next drain. With nothing to write, mutate only drains.
func (p *Peer) mutate(tok auth.Token, docs []Document, counts []map[string]int, removed []uint32) (queued bool, err error) {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if err := p.drainPending(tok); err != nil || len(docs)+len(removed) == 0 {
		return false, err
	}
	m, err := p.build(docs, counts, removed)
	if err != nil {
		return false, err
	}
	if err := p.beginOp(m); err != nil {
		return true, err
	}
	return true, p.drainPending(tok)
}

// build assembles the complete encrypted operation that writes docs
// (counts[i] is docs[i]'s term counts, one entry per document ID) and
// removes the removed documents. Each written document is diffed
// against its committed refs: an element is kept, with no network
// traffic, only while its term is still present with the same clamped
// tf and the document's group is unchanged; every other term is staged
// under a fresh global ID, and the superseded elements, with every ref
// of a removed document, become the delete stage. Nothing is sent: a
// build failure (ID out of range, entropy) leaves the index untouched.
// Callers hold pmu, which excludes applyLocal, the only writer of docs
// and refs.
func (p *Peer) build(docs []Document, counts []map[string]int, removed []uint32) (*mutOp, error) {
	m := &mutOp{
		op:         journal.Op{Servers: len(p.cfg.Servers), Removed: removed},
		commitDocs: docs,
		commitRefs: make([]map[string]elemRef, len(docs)),
	}
	for _, id := range removed {
		refs, ok := p.refs[id]
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrUnknownDoc, id)
		}
		for _, ref := range refs {
			m.op.Dels = append(m.op.Dels, journal.Del{List: uint32(ref.list), GID: uint64(ref.gid)})
		}
	}
	rng, release := p.acquireRand()
	defer release()
	var st staged
	for i, doc := range docs {
		if err := checkDocID(doc.ID); err != nil {
			return nil, err
		}
		sameGroup := p.docs[doc.ID].Group == doc.Group
		keep := make(map[string]elemRef, len(counts[i]))
		for term, ref := range p.refs[doc.ID] {
			if c, still := counts[i][term]; still && sameGroup && posting.ClampTF(c) == ref.tf {
				keep[term] = ref // identical element; no network traffic
				continue
			}
			m.op.Dels = append(m.op.Dels, journal.Del{List: uint32(ref.list), GID: uint64(ref.gid)})
		}
		fresh := make([]string, 0, len(counts[i])-len(keep))
		for term := range counts[i] {
			if _, kept := keep[term]; !kept {
				fresh = append(fresh, term)
			}
		}
		sort.Strings(fresh)
		if err := st.add(p, doc, counts[i], fresh, rng, keep); err != nil {
			return nil, err
		}
		m.commitRefs[i] = keep
	}
	shares, err := p.encryptStaged(&st, rng)
	if err != nil {
		return nil, fmt.Errorf("peer %s: encrypting: %w", p.cfg.Name, err)
	}
	m.op.Elems = buildElems(&st, shares)
	if m.op.ID, err = p.newOpID(); err != nil {
		return nil, err
	}
	switch {
	case len(docs) == 0:
		m.op.Kind = journal.KindDelete
	case len(m.op.Dels) > 0:
		m.op.Kind = journal.KindUpdate
	default:
		m.op.Kind = journal.KindIndex
	}
	if p.jn != nil {
		// The journaled post-state (with its deterministic sorted-ref
		// encoding) is only built when there is a journal to hold it.
		m.op.Docs = make([]journal.DocState, len(docs))
		for i, doc := range docs {
			m.op.Docs[i] = docState(doc, m.commitRefs[i])
		}
	}
	return m, nil
}

// checkDocID rejects a document ID wider than an element's packed
// document field.
func checkDocID(id uint32) error {
	if id > posting.MaxDocID {
		return fmt.Errorf("%w: %d", ErrDocIDRange, id)
	}
	return nil
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

// add stages the listed terms of doc under fresh global IDs and records
// their element references in refs.
func (st *staged) add(p *Peer, doc Document, counts map[string]int, terms []string, rng io.Reader, refs map[string]elemRef) error {
	for _, term := range terms {
		elem := posting.Element{
			DocID:  doc.ID,
			TermID: p.cfg.Vocab.Resolve(term),
			TF:     posting.ClampTF(counts[term]),
		}
		gid, err := randomGlobalID(rng)
		if err != nil {
			return fmt.Errorf("peer: generating element ID: %w", err)
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
	return nil
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

// Batch queues documents and writes them in one shuffled insert per
// server, hiding which elements co-occur in one document from an
// adversary watching updates (§5.4.1).
//
// Add only counts terms; Flush writes every queued document as one
// journaled operation, diffed like UpdateDocument: a document the peer
// already hosts sends only its changed terms (all of them if its group
// changed), and adding one ID twice queues the last version. A batch is
// not safe for concurrent use; the peer it flushes into is.
type Batch struct {
	peer   *Peer
	docs   []Document
	counts []map[string]int
	at     map[uint32]int // index in docs of each queued document ID
}

// NewBatch starts an empty batch.
func (p *Peer) NewBatch() *Batch {
	return &Batch{peer: p}
}

// Add queues a document, replacing an earlier Add of the same ID.
// Nothing is encrypted or sent until Flush.
func (b *Batch) Add(doc Document) error {
	if err := checkDocID(doc.ID); err != nil {
		return err
	}
	counts := textproc.TermCounts(doc.Content)
	if i, ok := b.at[doc.ID]; ok {
		b.docs[i], b.counts[i] = doc, counts
		return nil
	}
	if b.at == nil {
		b.at = make(map[uint32]int)
	}
	b.at[doc.ID] = len(b.docs)
	b.docs = append(b.docs, doc)
	b.counts = append(b.counts, counts)
	return nil
}

// Len returns the number of documents queued in the batch.
func (b *Batch) Len() int { return len(b.docs) }

// Elements returns the number of posting elements the queued documents
// hold per server. For documents the peer does not host this is what
// Flush inserts; for hosted ones it is an upper bound, since Flush sends
// only what changed.
func (b *Batch) Elements() int {
	n := 0
	for _, c := range b.counts {
		n += len(c)
	}
	return n
}

// Flush writes the queued documents as one journaled operation: their
// fresh elements are encrypted into the operation's payload, persisted
// (with a journal configured) before the first send, dispatched to
// every server under one whole-payload shuffle, and committed locally
// once all servers acknowledge. Once the operation is built the batch
// is empty. If sending fails, the operation stays pending like any
// other: the next Flush or mutation resends the same shares to the
// servers that did not acknowledge, and the operation ID lets servers
// deduplicate redeliveries, so retries are exactly-once in effect.
// Documents added after a failed Flush go in an operation of their own
// once the failed one completes; with nothing queued, Flush only drives
// the pending operations.
func (b *Batch) Flush(tok auth.Token) error {
	queued, err := b.peer.mutate(tok, b.docs, b.counts, nil)
	if queued {
		*b = Batch{peer: b.peer}
	}
	return err
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
