// Package zerber is an implementation of Zerber, the r-confidential
// inverted index for distributed sensitive documents of Zerr et al.
// (EDBT 2008).
//
// Zerber lets collaboration groups inside a large enterprise share a
// fast, centralized full-text index without trusting the index servers
// with document contents:
//
//   - every posting element [document_ID, term_ID, tf] is split with
//     Shamir k-out-of-n secret sharing across n index servers, so up to
//     k-1 compromised servers reveal nothing about pre-existing elements
//     and no keys ever need to be distributed or revoked;
//   - posting lists of several terms are merged so a compromised server
//     cannot learn per-term document frequencies; the leak is bounded by
//     the tunable r-confidentiality parameter;
//   - every index server enforces per-group access control on lookups,
//     and group membership changes take effect immediately.
//
// The entry point is Cluster, which wires the n index servers, the
// public mapping table, and the authentication service. Peers (document
// owners) index and update documents; Searchers run ranked keyword
// queries.
//
//	cluster, _ := zerber.NewCluster(docFreqs, zerber.Options{N: 3, K: 2})
//	cluster.AddUser("alice", 1)
//	p, _ := cluster.NewPeer("site1", 0)
//	tok := cluster.IssueToken("alice")
//	p.IndexDocument(tok, peer.Document{ID: 1, Content: "...", Group: 1})
//	s, _ := cluster.Searcher()
//	results, _ := s.Search(tok, []string{"imclone"}, 10)
//
// # Query concurrency
//
// The query hot path is concurrent end-to-end. Algorithm 2 needs any k
// of the n shares, so a search sends its posting-list request to k
// servers in parallel, the first in preference order, and replaces a
// failed one with the next. A straggler is hedged: when the k answers
// are not in after a delay derived from the latencies the client has
// observed (srtt + 4·rttvar, as in RFC 6298), one more server is asked,
// and the search completes as soon as k have answered. Cancelling the
// stragglers through context.Context frees the client at once, but not
// the servers: the binary wire carries no cancellation, so a server
// runs an abandoned call to completion and the client drops its
// response unread.
//
// Once k responses are in, the shares are joined by element ID,
// reconstructed, filtered and ranked inline on the calling goroutine, at
// a few nanoseconds per element, with results and Stats that do not
// depend on which servers answered.
//
// # Top-k retrieval
//
// Searcher.Search is exact retrieval: it fetches the full posting list
// of every query term, at a cost that grows linearly with list length,
// and ranks by TF-IDF. Searcher.SearchTopK runs the early-terminating
// block protocol of Zerber+R (§6) instead: each peer tags every posting
// element, at encryption time, with a coarse impact bucket (the rounded
// log2 of its term frequency) carried in the top bits of the element's
// public global ID, and every index server keeps each merged list
// ordered by descending bucket. A top-k query can then stream
// score-ordered blocks — GetPostingBlocks(list, from, n) — from k
// servers round by round, decrypt each round's elements as they arrive,
// and stop as soon as no unfetched element can alter the top k: the
// bucket of the first unfetched position bounds everything behind it, so
// the scan ends once the k-th score is strictly above that bucket's
// largest frequency.
//
// When that pays is decided per query. A one-term query streams: its
// latency scales with the depth of the k-th result, not with the list
// length, which is what makes hot Zipfian terms affordable. A query of
// several terms must see each of its best documents in every term's
// list, or reach the list's end, before their scores are exact; streamed,
// it would read all of its lists but the longest to the end, a round trip
// per window. It fetches its lists in one call per server instead, as
// exact retrieval does, and ranks them by the same frequency sum: never
// slower than exact search, and no faster. A streamed query's first
// window is 256 elements per list, later ones double (a client built
// over Cluster.APIs sets another first window with client.Tuning).
//
// SearchTopK ranks by summed term frequency with ties broken by
// ascending document ID — a collection-independent order that the
// bucket layout sorts servers by and that exhaustive retrieval
// reproduces exactly, so early termination is a pure optimization:
// results are bit-identical to scanning everything. (Search keeps
// TF-IDF ranking, which needs the full lists for personalized
// collection statistics.)
//
// The bucket is a deliberate, bounded widening of the leak budget, and
// it holds for every cluster, whichever search its users run: peers tag
// every global ID with its bucket and every store keeps its lists in
// bucket order (the leak budget in internal/store). A compromised server
// already sees list lengths and access patterns; it additionally sees
// each element's ~log2(tf) — 16 quantized levels, not the tf itself —
// which is exactly the §6 trade the paper makes for sub-linear
// retrieval. Per-term document frequencies stay hidden by list merging
// as before.
//
// # Storage engine
//
// Server-side concurrency is governed by the storage engine behind each
// index server. Every server is a thin policy layer (authentication,
// group checks, stats) over the store.Store interface, which captures
// the keyed share operations of the paper's recovery design (§5.4.1) in
// nine methods: batch insert/replace, delete by (list, global ID),
// authorized scan of a whole list or a window of it, full-list drop for
// DHT migration, delta application for proactive resharing, the list
// lengths and element count — the §5.2 view of a compromised server,
// and the only inventory — and a Sync batch boundary the server marks
// at the end of every mutation. The server re-exports none of these
// views; trusted callers read them through Server.Store.
//
// The default engine (store.Sharded) stripes the merged posting lists
// over independently locked shards keyed by hash(ListID), a
// GOMAXPROCS-scaled power of two of them, so mixed traffic on different
// lists proceeds in parallel. A merged list lives entirely in one
// shard, so within-list share ordering — and therefore retrieval output
// and Stats — is identical under every stripe count (the tests hold
// every engine to the one-stripe reference); only throughput changes.
// Sharding is invisible to the confidentiality analysis: shares stay
// encrypted inside the engine and access control stays at the server
// boundary (see the contract in internal/store).
//
// # Disk engine
//
// StoreEngine "disk" swaps every server's store for the log-structured
// on-disk engine (store.Disk), whose resident memory is O(index) rather
// than O(data):
// share payloads live in CRC-framed append-only segment files under
// StoreDir and only a compact per-list index — plus a bounded LRU cache
// of hot lists — stays in memory. The engine is the server's only log:
// a server restarted on the same directory replays it (not under
// DHTNodes, see StoreDir), and there is no separate write-ahead log to
// configure. Each segment is a log of
// package wal, the one log primitive, which the peers' mutation journals
// (JournalDir) use too: one replay, one torn-tail truncation, one append
// handle, one atomic rewrite; the engine adds only its record schema and
// multi-segment policy. Every store call is one framed record group, so
// a crash either persists a whole Upsert/ApplyDeltas batch or none of
// it; a torn tail from a kill mid-append is detected by CRC and
// truncated at the next open; and background compaction writes live
// data to a fresh segment with wal's atomic rewrite (temp file, fsync,
// rename), so a crash at any point inside compaction recovers to exactly
// the pre- or post-compaction state, never a mix. The engine passes the
// same randomized cross-engine equivalence and simulation tiers as the
// in-memory store — retrieval output and Stats are bit-identical;
// only residency and latency change. What an acknowledged mutation has
// survived — a process kill always, a power loss only with
// store.DiskOptions.Sync, which zerber-server -store-engine disk sets —
// is stated once, in the Durability section of package server.
//
// # Indexing pipeline
//
// The write side mirrors the query side's batched design. Indexing a
// document (Algorithm 1a; §5.1 reports splitting a 5,000-term document
// in the low-millisecond range) runs as a two-stage pipeline inside the
// peer. The staging stage is cleartext bookkeeping: term counting,
// vocabulary lookups, and one random global ID per element. The
// splitting stage then shares every staged element in bulk through a
// shamir.Splitter — the write-side twin of the cached Lagrange
// Reconstructor — which validates the servers' x-coordinates once,
// precomputes the Vandermonde power table, and writes all shares into
// per-server contiguous buffers with a constant number of allocations
// per batch instead of several per element. Random polynomial
// coefficients come from field.ShareSource, a ChaCha8 generator keyed
// (and periodically re-keyed) from crypto/rand, so entropy syscalls are
// amortized across a whole document rather than paid per coefficient.
//
// A batch's Add only counts terms; Flush stages and splits every queued
// document in one batched pass before the correlation-hiding shuffle
// (§5.4.1). The pass runs inline over same-group windows of staged
// elements: share generation is a few percent of an indexing operation
// (BENCH_index.json: BenchmarkEncryptBatch against
// BenchmarkIndexDocument5k), so there is nothing for a worker pool to
// win. Proactive resharing rides the
// same pipeline: a refresh delta is a Shamir share of zero, so delta
// generation is a SplitBatch over a zero-secret vector.
//
// # Mutation pipeline & recovery
//
// Every peer mutation — IndexDocument, UpdateDocument, DeleteDocument,
// Batch.Flush — runs as one journaled operation with a unique ID and a
// two-stage protocol: the fresh elements are inserted on every server
// first, and only then are the superseded elements deleted, so an
// interruption at any point leaves the old postings intact (at worst
// both generations exist transiently). The complete encrypted payload
// is built before the first byte is sent; a payload-construction
// failure leaves the index untouched. Within a stage the n servers are
// sent to concurrently, so a stage costs one round trip; the barrier is
// between the stages: every insert acknowledgement is awaited before the
// first delete leaves. Each attempt's wire order is a fresh shuffle from
// the shares' generator (§5.4.1). The owner's local index (§7.2) is the
// peer's per-document record of each term's list, global ID and tf.
// One builder makes every operation, and it diffs each written document
// against that record, a batch flush's documents included: an element
// is kept only while its term keeps the same tf and the document keeps
// its group (every stored share carries the group that filters it,
// §5.4.2); all other terms are inserted fresh and the superseded
// elements deleted. So an update sends only the changed terms, a
// document moved to another group is resent whole, and re-adding a
// hosted document to a batch replaces it rather than leaving the old
// version searchable.
//
// With the JournalDir option set, each peer persists its operations to
// a journal (fsynced before the first send) along with one record per
// per-server acknowledgement. After a crash, reopening the peer on the
// same journal restores its document state from the completed
// operations, and peer.Recover resumes the in-flight ones: servers that
// acknowledged before the crash are skipped, the rest receive the
// journaled payload byte-identically. Every send carries the operation
// ID and stage; index servers keep a bounded per-caller window of
// applied operations and acknowledge redeliveries without re-applying
// or re-counting stats. Inserts upsert by (list, global ID) and the
// mutation path's deletes treat absence as success, so even an
// operation evicted from a server's window re-applies convergently:
// retries and replays are exactly-once in effect, with no coordination
// beyond the operation ID. peer.CompactJournal bounds journal growth by
// rewriting it to one snapshot per live document, like the disk
// engine's segment compaction.
//
// Guarantees, precisely: a mutation whose call returned nil is applied
// on every server exactly once; a mutation that failed or was
// interrupted is either absent everywhere or completes exactly once
// after Recover (or any later mutation, which drains pending
// operations first); no interleaving of crashes, retries, and
// redeliveries orphans an element, because nothing is deleted before
// the replacement is acknowledged everywhere and every delete is
// journaled before it is issued.
//
// # Membership & rebalancing
//
// With the DHTNodes option above 1, each of the n share slots still has
// one index server, but its storage engine is a dht.Slot over a set of
// physical storage nodes: merged posting lists are partitioned over the
// nodes by a consistent-hashing ring, and the slot — itself a
// store.Store — routes every keyed store call to the node authoritative
// for its list. Authentication, group checks, the op-dedup window and
// the stats stay in the one server above the slot. Shares stay bound to
// the slot's public x-coordinate, so the confidentiality analysis is
// unchanged: the ring only decides which box inside a slot stores a
// list.
//
// Membership is an online operation: JoinNode and LeaveNode add or
// drain a named node across every slot while the cluster keeps
// serving. The guarantees, precisely:
//
//   - Authoritative until cutover: each list migrates through a
//     two-phase handoff — a copy phase during which the source node
//     keeps serving reads and writes (mutations landing mid-copy are
//     recorded in a dirty set and reconciled before the switch), then
//     a per-list atomic cutover that flips routing to the target.
//     Reads never see a half-ingested copy.
//   - Completion: a move is plain store calls on the two node stores,
//     which return no error, so it always lands. The cutover's exclusive
//     hold of the routing lock covers one final drain of the dirty set,
//     so however hot the list, routing flips to an equal copy. JoinNode
//     and LeaveNode return once every move has landed.
//
// Proactive resharing needs no quiescent topology: the round runs over
// the n slot servers, each slot applies a list's deltas on the node
// authoritative for it, and a list mid-handoff has its refreshed IDs
// marked dirty, so the target's copy is brought up to date before
// cutover.
//
// # Simulation & invariants
//
// The guarantees above only matter in combination — a crash during a
// retried batch flush while a server is partitioned exercises the
// journal, the dedup window, and the storage engine at once — so they
// are verified by a model checker rather than hand-picked scenarios.
// internal/sim drives the full stack through seed-reproducible random
// operation programs under a fault-injecting transport (outages,
// dropped and duplicated deliveries, delayed out-of-order
// redeliveries, lost responses, peer kills mid-protocol, and — under
// DHT membership churn — node joins, leaves, and mid-migration kills
// with migration traffic dropped, duplicated, and replayed) and
// checks, at every quiescent point, four invariants against the
// paper's §2 reference system (a plain centralized inverted index with
// an ACL check):
//
//   - answer-set equivalence: for every user and every term, retrieval
//     returns exactly the oracle's document set;
//   - zero orphans: every index server holds exactly the peers'
//     committed element set — interrupted updates leave nothing behind
//     and lose nothing;
//   - journal/state convergence: restarting a peer from its journal
//     reproduces its documents and element references exactly;
//   - stats and storage consistency: activity counters match stored
//     state even under redelivery, and every storage engine upholds
//     the store.Store contract (store.CheckInvariants).
//
// A failing simulation prints its seed and a delta-debugged minimal
// operation trace that reproduces the failure deterministically when
// pasted into a test. TESTING.md documents the tiers and the
// reproduction workflow.
//
// # Wire protocol
//
// Share traffic between peers, searchers, and index servers crosses one
// wire, the binary framed protocol behind transport.API: zerber-server
// serves it (transport.ServeBinary) and the clients dial it with a bare
// host:port or a binary:// address (transport.DialBinary), which refuses
// any other scheme by name. Every message is a 4-byte little-endian
// length, the payload, and a CRC32 — the same frame format (package
// wal) the peer journal and the disk engine's segments use on disk, so
// torn and corrupted frames are detected identically in both places.
// Payloads are fixed-width field encodings (a share is exactly 20 bytes
// on the wire), and decoding validates lengths before reading. A frame
// is written once: both ends build it in place, header to checksum, in
// the buffer it is sent from, and read it into a buffer of the same
// kind; those buffers are recycled once written or decoded, never
// shared between two messages at a time, and only a frame's own bytes
// are ever sent from one. What a lookup allocates per call is the
// shares it returns. Each client holds one persistent TCP connection
// per server and pipelines concurrent requests over it, tagging every
// frame with a request ID so responses can return in any order; a dead
// connection is redialed lazily with exponential backoff, which is safe
// because mutations are exactly-once by operation-ID dedup regardless
// of transport retries. A rejected request gets an addressed error
// status in HTTP's numbering (401 authentication, 403 authorization,
// 400 malformed) and leaves the connection serving; only a torn or
// corrupt frame drops it. The conformance suite, a tier of the
// fault-injecting simulator (sim.Config.BinaryWire), and the soak all
// run over it.
//
// # Soak
//
// The simulator proves correctness under injected faults, one operation
// at a time; cmd/zerber-loadgen (logic in internal/load) is the
// fault-free complement that runs everything at once over real TCP:
// each server on its own loopback listener serving the binary wire,
// concurrent searchers replaying the Zipfian query-frequency
// model on both retrieval paths, journaled peers holding a live
// document set near a target size, group-membership churn, node
// join/leave with live migration, and periodic proactive resharing.
// Its whole verdict is that every operation kind did some work with
// zero errors and that, once the workers stop, every share slot stores
// exactly the peers' committed elements. It measures nothing: how fast
// the system is, and whether a change made it slower, is decided by
// benchmark/ alone (benchmark/README.md).
package zerber

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/dht"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/proactive"
	"zerber/internal/ranking"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// Re-exported identifiers so typical applications only import zerber and
// the peer package.
type (
	// UserID identifies an enterprise user.
	UserID = auth.UserID
	// GroupID identifies a collaboration group.
	GroupID = auth.GroupID
	// Token is an authentication credential.
	Token = auth.Token
	// Heuristic selects a posting-list merging strategy.
	Heuristic = merging.Heuristic
)

// Merging heuristics (paper §6).
const (
	DFM = merging.DFM
	BFM = merging.BFM
	UDM = merging.UDM
)

// Options configures a cluster.
type Options struct {
	// N is the number of index servers; K is the secret-sharing
	// threshold (k-of-n). Defaults: N=3, K=2 (the paper's evaluation
	// setup). A searcher addresses at most 64 servers (client.New).
	N, K int
	// Heuristic, M, R and RareCutoff configure posting-list merging; see
	// merging.Options. Defaults: DFM with M = max(1, vocab/8) lists and
	// R = max(1, M/4) (mass target 4/M). R is DFM's and BFM's fill
	// target, not a bound: NewCluster builds the table whatever r it
	// realizes (a table of M lists has r >= M, so the default R is not
	// met once M > 1), and RValue reports that r. zerber-peer
	// -build-table instead derives M from an r, and refuses an r it
	// cannot meet.
	Heuristic  Heuristic
	M          int
	R          float64
	RareCutoff float64
	// Seed makes table construction and BFM redistribution deterministic.
	Seed int64
	// OpaqueUserIDs enables the §7.1 extension: index servers store and
	// see only HMAC-derived pseudonyms, never real user identities, so a
	// compromised server cannot tell who issued a query or update.
	OpaqueUserIDs bool
	// DHTNodes, when greater than 1, backs each of the N slot servers
	// with that many physical storage nodes behind a consistent-hashing
	// dht.Slot engine (see "Membership & rebalancing" above); JoinNode
	// and LeaveNode then change the node set online. 0 or 1 gives each
	// server one engine.
	DHTNodes int
	// StoreEngine names each index server's storage engine (under
	// DHTNodes, each storage node's): "" or
	// "sharded" (the lock-striped in-memory default — see "Storage
	// engine" above) or "disk" (the log-structured on-disk engine — see
	// "Disk engine"). Results and Stats are identical under both.
	StoreEngine string
	// StoreDir is where the "disk" engine keeps its segment files; each
	// server gets its own subdirectory <StoreDir>/<server name> (under
	// DHTNodes, each node <StoreDir>/<server name>-<node name>). Empty
	// with StoreEngine "disk" picks a fresh temporary directory (the
	// index is durable for the directory's lifetime but effectively
	// process-scoped). Ignored by the in-memory engine. Slot membership
	// is not persisted, so a DHTNodes cluster cannot restart on a
	// StoreDir its nodes wrote: a slot refuses to add a node whose store
	// already holds elements, and NewCluster fails.
	StoreDir string
	// JournalDir, when non-empty, gives every peer a crash-safe
	// mutation journal at <JournalDir>/<peer name>.journal: mutations
	// are persisted before the first network send and replayed to
	// convergence by peer.Recover after a crash (see "Mutation pipeline
	// & recovery" above). Empty disables journaling; mutations are then
	// retryable within the process but lost with it.
	JournalDir string
}

// Cluster is a complete in-process Zerber deployment: n index servers,
// the shared group table, the public mapping table and vocabulary, and
// the registry of document-owner peers.
type Cluster struct {
	opts    Options
	servers []*server.Server // one per share slot
	slots   []*dht.Slot      // the servers' engines under DHTNodes; nil otherwise
	authSvc *auth.Service
	groups  *auth.GroupTable
	table   *merging.Table
	voc     *vocab.Vocabulary
	pseudo  *auth.Pseudonymizer // nil unless OpaqueUserIDs

	mu    sync.RWMutex
	peers map[string]*peer.Peer
}

// NewCluster builds a cluster. docFreqs is the corpus document-frequency
// table used to construct the merging table; the paper learns it from
// the first 30% of documents (§7.5), so an estimate is fine — terms that
// appear later are hash-routed.
func NewCluster(docFreqs map[string]int, opts Options) (*Cluster, error) {
	if opts.N == 0 {
		opts.N = 3
	}
	if opts.K == 0 {
		opts.K = 2
	}
	if opts.K < 1 || opts.K > opts.N {
		return nil, fmt.Errorf("zerber: need 1 <= K <= N, got K=%d N=%d", opts.K, opts.N)
	}
	if opts.DHTNodes < 0 {
		return nil, fmt.Errorf("zerber: DHTNodes must be >= 0, got %d", opts.DHTNodes)
	}
	if opts.Heuristic == "" {
		opts.Heuristic = DFM
	}
	switch opts.StoreEngine {
	case "", "sharded", "disk":
	default:
		return nil, fmt.Errorf("zerber: unknown store engine %q (want \"sharded\" or \"disk\")",
			opts.StoreEngine)
	}
	if opts.StoreEngine == "disk" && opts.StoreDir == "" {
		dir, err := os.MkdirTemp("", "zerber-store-")
		if err != nil {
			return nil, fmt.Errorf("zerber: creating temporary store dir: %w", err)
		}
		opts.StoreDir = dir
	}

	dist, err := confidential.NewDistribution(docFreqs)
	if err != nil {
		return nil, fmt.Errorf("zerber: building term distribution: %w", err)
	}
	if opts.M == 0 {
		opts.M = dist.Len() / 8
		if opts.M < 1 {
			opts.M = 1
		}
	}
	if opts.R == 0 {
		// Target mass 4/M per list: a few terms per list on average.
		opts.R = float64(opts.M) / 4
		if opts.R < 1 {
			opts.R = 1
		}
	}
	table, err := merging.Build(dist, merging.Options{
		Heuristic:  opts.Heuristic,
		M:          opts.M,
		R:          opts.R,
		RareCutoff: opts.RareCutoff,
		Seed:       opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("zerber: building mapping table: %w", err)
	}
	voc := vocab.NewFromTerms(table.ListedTerms())

	svc, err := auth.NewService(0) // tokens live auth's default hour
	if err != nil {
		return nil, fmt.Errorf("zerber: creating auth service: %w", err)
	}
	groups := auth.NewGroupTable()

	c := &Cluster{
		opts:    opts,
		authSvc: svc,
		groups:  groups,
		table:   table,
		voc:     voc,
		peers:   make(map[string]*peer.Peer),
	}
	if opts.OpaqueUserIDs {
		c.pseudo, err = auth.NewPseudonymizer()
		if err != nil {
			return nil, fmt.Errorf("zerber: creating pseudonymizer: %w", err)
		}
	}
	for i := 0; i < opts.N; i++ {
		name := fmt.Sprintf("zerber-ix%d", i+1)
		st, err := c.newStore(name, opts.DHTNodes)
		if err != nil {
			return nil, err
		}
		s := server.New(server.Config{
			Name:   name,
			X:      field.Element(i + 1),
			Auth:   svc,
			Groups: groups,
			Store:  st,
		})
		c.servers = append(c.servers, s)
	}
	return c, nil
}

// newStore builds the storage engine of the server named name: one
// engine from the cluster options, or with nodes above 1 a dht.Slot over
// that many, named n0, n1, ..., recorded in c.slots. The disk engine
// roots each engine's segment files in its own subdirectory of
// StoreDir, so engines never share a log.
func (c *Cluster) newStore(name string, nodes int) (store.Store, error) {
	if nodes <= 1 {
		st, err := store.NewEngine(c.opts.StoreEngine, filepath.Join(c.opts.StoreDir, name))
		if err != nil {
			return nil, fmt.Errorf("zerber: store for %s: %w", name, err)
		}
		return st, nil
	}
	first, err := c.newStore(name+"-n0", 1)
	if err != nil {
		return nil, err
	}
	slot := dht.NewSlot("n0", first)
	for j := 1; j < nodes; j++ {
		node := fmt.Sprintf("n%d", j)
		st, err := c.newStore(name+"-"+node, 1)
		if err != nil {
			return nil, err
		}
		if err := slot.AddNode(node, st); err != nil {
			return nil, fmt.Errorf("zerber: %s: adding node %s: %w", name, node, err)
		}
	}
	c.slots = append(c.slots, slot)
	return slot, nil
}

// JoinNode adds a physical node named name to every share slot and
// migrates the lists it now owns from their previous holders, online —
// the cluster keeps serving throughout, with each list cutting over as
// its copy completes. Every move has landed when JoinNode returns; it
// fails only on a name already in use or a store that cannot be
// opened. Requires Options.DHTNodes.
func (c *Cluster) JoinNode(name string) error {
	if c.slots == nil {
		return errors.New("zerber: JoinNode requires Options.DHTNodes > 1")
	}
	var errs []error
	for i, sl := range c.slots {
		if _, ok := sl.Node(name); ok {
			errs = append(errs, fmt.Errorf("zerber: slot %d: node %s already in slot", i+1, name))
			continue
		}
		node, err := c.newStore(fmt.Sprintf("zerber-ix%d-%s", i+1, name), 1)
		if err != nil {
			errs = append(errs, fmt.Errorf("zerber: slot %d: %w", i+1, err))
			continue
		}
		if err := sl.AddNode(name, node); err != nil {
			errs = append(errs, fmt.Errorf("zerber: slot %d: %w", i+1, err))
		}
	}
	return errors.Join(errs...)
}

// LeaveNode takes the named node off every slot's ring and drains its
// lists to the remaining nodes, online. The node keeps serving each of
// its lists until that list's cutover and has left every slot when
// LeaveNode returns. Removing an unknown node or a slot's last node
// fails: the last node's shares would have nowhere to go.
func (c *Cluster) LeaveNode(name string) error {
	if c.slots == nil {
		return errors.New("zerber: LeaveNode requires Options.DHTNodes > 1")
	}
	var errs []error
	for i, sl := range c.slots {
		if err := sl.RemoveNode(name); err != nil {
			errs = append(errs, fmt.Errorf("zerber: slot %d: %w", i+1, err))
		}
	}
	return errors.Join(errs...)
}

// Nodes returns the sorted physical node names serving each slot
// (including nodes still draining out), or nil without DHTNodes.
func (c *Cluster) Nodes() []string {
	if c.slots == nil {
		return nil
	}
	return c.slots[0].NodeNames()
}

// ident maps a real user ID to the form the index servers see: the ID
// itself, or its pseudonym under the OpaqueUserIDs extension.
func (c *Cluster) ident(user UserID) UserID {
	if c.pseudo != nil {
		return c.pseudo.Pseudonym(user)
	}
	return user
}

// AddUser puts a user into a group on every index server.
func (c *Cluster) AddUser(user UserID, group GroupID) { c.groups.Add(c.ident(user), group) }

// RemoveUser revokes a user's group membership immediately.
func (c *Cluster) RemoveUser(user UserID, group GroupID) bool {
	return c.groups.Remove(c.ident(user), group)
}

// IssueToken authenticates a user with the enterprise service. Under
// OpaqueUserIDs the token carries only the user's pseudonym.
func (c *Cluster) IssueToken(user UserID) Token { return c.authSvc.Issue(c.ident(user)) }

// NewPeer registers a document-owner peer. seed controls the peer's
// randomness (0 means crypto-random sharing polynomials). Document IDs
// must be unique across the cluster's peers — the paper's document ID
// "must identify both the machine on which the document is hosted and
// the document within that machine" (§5.4.2) — so partition the 24-bit
// ID space among sites.
func (c *Cluster) NewPeer(name string, seed int64) (*peer.Peer, error) {
	cfg := peer.Config{
		Name:    name,
		Servers: c.APIs(),
		K:       c.opts.K,
		Table:   c.table,
		Vocab:   c.voc,
	}
	if c.opts.JournalDir != "" {
		if err := os.MkdirAll(c.opts.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("zerber: journal directory: %w", err)
		}
		cfg.JournalPath = filepath.Join(c.opts.JournalDir, name+".journal")
	}
	if seed != 0 {
		cfg.Rand = newSeededReader(seed)
	}
	p, err := peer.New(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.peers[name]; dup {
		return nil, fmt.Errorf("zerber: peer %q already registered", name)
	}
	c.peers[name] = p
	return p, nil
}

// Result is one ranked search hit, with the snippet fetched from the
// hosting peer (Algorithm 2's final step).
type Result struct {
	DocID   uint32
	Score   float64
	Snippet string
	Peer    string
}

// Searcher is a querying user's handle.
type Searcher struct {
	c       *client.Client
	cluster *Cluster
}

// Searcher creates a query client over the cluster's servers.
func (c *Cluster) Searcher() (*Searcher, error) {
	cl, err := client.New(c.APIs(), c.opts.K, c.table, c.voc)
	if err != nil {
		return nil, err
	}
	return &Searcher{c: cl, cluster: c}, nil
}

// Search runs an exact ranked keyword query — whole posting lists,
// TF-IDF ranking — and resolves snippets for the top-K results from the
// hosting peers.
func (s *Searcher) Search(tok Token, query []string, topK int) ([]Result, error) {
	return s.SearchContext(context.Background(), tok, query, topK)
}

// SearchContext is Search bounded by ctx: cancellation aborts the server
// fan-out and the decrypt stage.
func (s *Searcher) SearchContext(ctx context.Context, tok Token, query []string, topK int) ([]Result, error) {
	ranked, _, err := s.c.SearchContext(ctx, tok, query, topK)
	if err != nil {
		return nil, err
	}
	return s.cluster.resolveSnippets(tok, query, ranked)
}

// SearchTopK runs a top-k query (see "Top-k retrieval" above): ranked by
// summed term frequency, from score-ordered block rounds that stop once
// the top k are provably final where that is cheaper, from whole lists
// where not. Snippets are resolved as for Search.
func (s *Searcher) SearchTopK(tok Token, query []string, topK int) ([]Result, error) {
	return s.SearchTopKContext(context.Background(), tok, query, topK)
}

// SearchTopKContext is SearchTopK bounded by ctx.
func (s *Searcher) SearchTopKContext(ctx context.Context, tok Token, query []string, topK int) ([]Result, error) {
	ranked, _, err := s.c.SearchTopKContext(ctx, tok, query, topK)
	if err != nil {
		return nil, err
	}
	return s.cluster.resolveSnippets(tok, query, ranked)
}

var errNoPeer = errors.New("zerber: no peer hosts the document")

// resolveSnippets asks the hosting peers for result snippets, enforcing
// the peer-side group check with the caller's verified identity.
func (c *Cluster) resolveSnippets(tok Token, query []string, ranked []ranking.ScoredDoc) ([]Result, error) {
	user, err := c.authSvc.Verify(tok)
	if err != nil {
		return nil, err
	}
	groupSet := c.groups.GroupSetOf(user)

	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Result, 0, len(ranked))
	for _, r := range ranked {
		res := Result{DocID: r.DocID, Score: r.Score}
		for name, p := range c.peers {
			if _, ok := p.Document(r.DocID); !ok {
				continue
			}
			snippet, err := p.Snippet(r.DocID, query, 0, groupSet)
			if err != nil {
				return nil, fmt.Errorf("zerber: snippet for doc %d: %w", r.DocID, err)
			}
			res.Snippet, res.Peer = snippet, name
			break
		}
		if res.Peer == "" {
			return nil, fmt.Errorf("%w: %d", errNoPeer, r.DocID)
		}
		out = append(out, res)
	}
	return out, nil
}

// ProactiveReshare runs one proactive secret-resharing round over all
// index servers (§5.1 / Herzberg et al. [21]): every stored share is
// refreshed in place, so shares an adversary captured earlier can no
// longer be combined with current ones. Queries keep working throughout;
// the shared secrets are unchanged. It returns the number of posting
// elements refreshed.
//
// Under DHTNodes the round runs over the slot servers like any other:
// each slot's engine routes a list's deltas to the node authoritative
// for it and marks them dirty on a list mid-handoff, so the target's
// copy is refreshed before cutover. A mutation racing the round is
// detected and rolled back cleanly (proactive.ErrConcurrentMutation);
// retry once the cluster is quiet.
func (c *Cluster) ProactiveReshare() (int, error) {
	return proactive.Reshare(c.servers, c.opts.K, nil)
}

// K returns the secret-sharing threshold.
func (c *Cluster) K() int { return c.opts.K }

// N returns the number of share slots (logical index servers).
func (c *Cluster) N() int { return len(c.servers) }

// RValue returns the resulting confidentiality parameter of the mapping
// table (formula (7)).
func (c *Cluster) RValue() float64 { return c.table.RValue() }

// Table exposes the public mapping table (it is public by design).
func (c *Cluster) Table() *merging.Table { return c.table }

// Vocab exposes the public vocabulary.
func (c *Cluster) Vocab() *vocab.Vocabulary { return c.voc }

// Servers exposes the n index servers, one per share slot, for
// instrumentation and adversary simulation; applications use Searcher
// and peers instead. Under DHTNodes each server's Store is its slot's
// dht.Slot; a physical node is one of the slot's node stores.
func (c *Cluster) Servers() []*server.Server {
	out := make([]*server.Server, len(c.servers))
	copy(out, c.servers)
	return out
}

// APIs exposes the transport handles (e.g. to build a custom client):
// the n index servers, one per share slot, in every layout. They are
// also the endpoints a deployment puts behind its wire listeners: under
// DHTNodes wire clients keep addressing n servers while physical nodes
// join and leave behind each slot's engine.
func (c *Cluster) APIs() []transport.API {
	out := make([]transport.API, len(c.servers))
	for i, s := range c.servers {
		out[i] = s
	}
	return out
}
