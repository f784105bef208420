package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/dht"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/posting"
	"zerber/internal/proactive"
	"zerber/internal/ranking"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// StepError wraps a checker failure with the step that surfaced it.
type StepError struct {
	Step int
	Op   Op
	Err  error
}

func (e *StepError) Error() string {
	return fmt.Sprintf("step %d (%s): %v", e.Step, e.Op.Kind, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *StepError) Unwrap() error { return e.Err }

// oracleMut is one queued oracle effect: the state change a begun but
// not yet completed peer mutation will have once it converges.
type oracleMut struct {
	remove  bool
	doc     uint32
	content string
	group   auth.GroupID
}

// healAttempts bounds recovery retries under transient faults before
// the runner declares the cluster unable to converge — itself a checked
// failure, since every fault in the plan is survivable by design.
const healAttempts = 100

// topkCheckK is the cut the quiescent top-k equivalence check compares
// at: deep enough to exercise ranking and ties, small enough that early
// termination actually terminates early on the sim corpora.
const topkCheckK = 5

// runner holds one simulation's live cluster and checker state.
type runner struct {
	cfg Config
	dir string

	svc    *auth.Service
	groups *auth.GroupTable
	table  *merging.Table
	voc    *vocab.Vocabulary

	// servers[i] is logical server i; slots[i] is its storage engine
	// when the cluster runs with DHT routing (nil otherwise). A slot's
	// physical node set changes under churn, so node enumeration is
	// always dynamic (nodeStores).
	servers []*server.Server
	slots   []*dht.Slot
	joined  int // monotonically counts joined nodes for fresh names
	core    *faultCore
	apis    []transport.API

	// Binary-wire plumbing (cfg.BinaryWire): one loopback listener and
	// one persistent client per logical server, torn down in close.
	binServers []*transport.BinaryServer
	binClients []*transport.BinaryClient

	// disks registers every disk-engine store (cfg.StoreEngine "disk")
	// so KindStoreReopen / KindCrashCompact reach them all — including
	// nodes joined mid-run — and close releases their files.
	disks []*store.Disk

	peer  *peer.Peer
	batch *peer.Batch
	// client runs exact retrieval; topkClient the early-terminating
	// block protocol (compared against the oracle's scored top k at
	// every quiescent point).
	client     *client.Client
	topkClient *client.Client
	oracle     *Oracle
	ownerTok   auth.Token
	userID     []auth.UserID
	userTok    []auth.Token

	// topkRuns keeps Stats.TA of every top-k search fullCheck has
	// compared with the oracle: which plan answered, in how many rounds.
	topkRuns []ranking.TAStats

	// queued are the oracle effects of the single begun-but-incomplete
	// peer operation (the engine never has more than one in flight);
	// queuedID is its operation ID. batchStaged are effects staged in
	// the batch but not yet part of any journaled operation — lost if
	// the peer crashes before a flush builds one.
	queued      []oracleMut
	queuedID    uint64
	batchStaged []oracleMut

	restarts int
	step     int
}

// Run replays a program against a fresh cluster built from cfg and
// returns the first checker failure, or nil if every step, the final
// convergence, and the journal-restore comparison pass. Runs are
// deterministic in (cfg, prog).
func Run(cfg Config, prog Program) error {
	cfg = cfg.withDefaults()
	r, err := newRunner(cfg)
	if err != nil {
		return fmt.Errorf("sim: building cluster: %w", err)
	}
	defer r.close()
	for i, op := range prog {
		r.step = i
		if err := r.exec(op); err != nil {
			return &StepError{Step: i, Op: op, Err: err}
		}
		if err := r.quickInvariants(); err != nil {
			return &StepError{Step: i, Op: op, Err: err}
		}
	}
	final := Op{Kind: KindHeal}
	r.step = len(prog)
	if err := r.execHeal(); err != nil {
		return &StepError{Step: len(prog), Op: final, Err: err}
	}
	if err := r.checkJournalRestore(); err != nil {
		return &StepError{Step: len(prog), Op: final, Err: err}
	}
	return nil
}

func newRunner(cfg Config) (*runner, error) {
	dir, err := os.MkdirTemp("", "zerber-sim-*")
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, dir: dir, oracle: NewOracle()}

	r.svc, err = auth.NewService(time.Hour)
	if err != nil {
		r.close()
		return nil, err
	}
	r.groups = auth.NewGroupTable()
	dfs := make(map[string]int, len(cfg.Vocabulary))
	for i, term := range cfg.Vocabulary {
		dfs[term] = len(cfg.Vocabulary) - i
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		r.close()
		return nil, err
	}
	r.table, err = merging.Build(dist, merging.Options{
		Heuristic: merging.UDM, M: 4, Seed: cfg.Seed,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.voc = vocab.NewFromTerms(cfg.Vocabulary)

	r.core = newFaultCore(cfg.Seed, cfg.Faults, cfg.N)
	for i := 0; i < cfg.N; i++ {
		var st store.Store
		if cfg.DHTNodes > 1 {
			st, err = r.newSlot(i)
		} else {
			st, err = r.newStore(fmt.Sprintf("ix%d", i))
		}
		if err != nil {
			r.close()
			return nil, err
		}
		s := server.New(server.Config{
			Name:   fmt.Sprintf("sim-ix%d", i),
			X:      field.Element(i + 1),
			Auth:   r.svc,
			Groups: r.groups,
			Store:  st,
		})
		r.servers = append(r.servers, s)
		var api transport.API = s
		if cfg.BinaryWire {
			api, err = r.serveBinary(api)
			if err != nil {
				r.close()
				return nil, err
			}
		}
		r.apis = append(r.apis, newTransport(r.core, i, api))
	}

	// The owner belongs to every group (mutations must always be
	// authorized — a permanently unauthorized mutation could never
	// converge); searchers start spread over the groups and churn.
	owner := auth.UserID("owner")
	for g := 1; g <= cfg.Groups; g++ {
		r.groups.Add(owner, auth.GroupID(g))
		r.oracle.AddUser(owner, auth.GroupID(g))
	}
	r.ownerTok = r.svc.Issue(owner)
	for u := 0; u < cfg.Users; u++ {
		id := auth.UserID(fmt.Sprintf("u%d", u))
		g := auth.GroupID(u%cfg.Groups + 1)
		r.groups.Add(id, g)
		r.oracle.AddUser(id, g)
		r.userID = append(r.userID, id)
		r.userTok = append(r.userTok, r.svc.Issue(id))
	}

	if err := r.openPeer(); err != nil {
		r.close()
		return nil, err
	}
	r.client, err = client.New(r.apis, cfg.K, r.table, r.voc)
	if err != nil {
		r.close()
		return nil, err
	}
	// Sequential fan-out keeps the whole run deterministic under one
	// seed.
	r.client.SetTuning(client.Tuning{Fanout: 1})
	// A second client drives the early-terminating top-k protocol over
	// the same transports; the tiny block size forces multi-round block
	// streaming so the TA loop is exercised, not just its first page.
	r.topkClient, err = client.New(r.apis, cfg.K, r.table, r.voc)
	if err != nil {
		r.close()
		return nil, err
	}
	r.topkClient.SetTuning(client.Tuning{Fanout: 1, BlockSize: 4})
	return r, nil
}

// openPeer (re)opens the peer on the simulation's journal. Each restart
// gets a fresh deterministic randomness stream, like a real process
// restart with a new DRBG.
func (r *runner) openPeer() error {
	r.restarts++
	cfg := peer.Config{
		Name:        "sim-site",
		Servers:     r.apis,
		K:           r.cfg.K,
		Table:       r.table,
		Vocab:       r.voc,
		Rand:        rand.New(rand.NewSource(r.cfg.Seed ^ 0x7ee2 + int64(r.restarts)<<32)),
		JournalPath: filepath.Join(r.dir, "site.journal"),
	}
	// Always set: under Sim a stage goes to one server at a time, which
	// keeps the fault stream's draws, and so a seed's trace, in one order.
	cfg.Sim = &peer.SimHooks{SkipDeleteReplay: r.cfg.SkipDeleteReplay}
	p, err := peer.New(cfg)
	if err != nil {
		return fmt.Errorf("sim: reopening peer: %w", err)
	}
	r.peer = p
	r.batch = p.NewBatch()
	return nil
}

// serveBinary fronts api with the real binary wire: a loopback
// listener served by transport.ServeBinary, dialed back through a
// persistent pipelined BinaryClient. The fault injector sits above the
// returned client, so injected faults exercise the codec path too.
// Determinism holds because the sim's peer and client issue calls
// sequentially (Fanout 1), so the pipelined connection carries at most
// one request at a time.
func (r *runner) serveBinary(api transport.API) (transport.API, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	bs := transport.ServeBinary(ln, api)
	r.binServers = append(r.binServers, bs)
	bc, err := transport.DialBinary(ln.Addr().String(), 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dialing sim binary server: %w", err)
	}
	r.binClients = append(r.binClients, bc)
	return bc, nil
}

// diskHooks derives the store.DiskSimHooks the config asks for, or nil.
func (r *runner) diskHooks() *store.DiskSimHooks {
	if !r.cfg.TearSegments && !r.cfg.SkipTornTruncate {
		return nil
	}
	return &store.DiskSimHooks{
		TearActiveTail:   r.cfg.TearSegments,
		SkipTornTruncate: r.cfg.SkipTornTruncate,
	}
}

// newStore builds one server's storage engine. Disk engines live under
// the run's temp dir with thresholds small enough that the fsync bound
// and auto-compaction both fire inside a 32-step program.
func (r *runner) newStore(name string) (store.Store, error) {
	if r.cfg.StoreEngine != "disk" {
		return store.NewSharded(r.cfg.StoreShards), nil
	}
	d, err := store.OpenDisk(filepath.Join(r.dir, "stores", name), store.DiskOptions{
		SegmentBytes:    4 << 10,
		CompactMinBytes: 8 << 10,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: opening disk store %s: %w", name, err)
	}
	d.SetSimHooks(r.diskHooks())
	r.disks = append(r.disks, d)
	return d, nil
}

// newSlot builds logical server i's DHT engine over cfg.DHTNodes node
// stores. Node names match across slots, so every slot's ring
// partitions the lists identically.
func (r *runner) newSlot(i int) (*dht.Slot, error) {
	first, err := r.newStore(fmt.Sprintf("ix%d-n0", i))
	if err != nil {
		return nil, err
	}
	slot := dht.NewSlot("n0", first)
	if r.cfg.LoseCutover {
		slot.SetSimHooks(&dht.SimHooks{LoseCutover: true})
	}
	for j := 1; j < r.cfg.DHTNodes; j++ {
		st, err := r.newStore(fmt.Sprintf("ix%d-n%d", i, j))
		if err != nil {
			return nil, err
		}
		if err := slot.AddNode(fmt.Sprintf("n%d", j), st); err != nil {
			return nil, err
		}
	}
	r.slots = append(r.slots, slot)
	return slot, nil
}

func (r *runner) close() {
	if r.peer != nil {
		r.peer.Close()
	}
	for _, d := range r.disks {
		d.Close()
	}
	for _, bc := range r.binClients {
		bc.Close()
	}
	for _, bs := range r.binServers {
		bs.Close()
	}
	os.RemoveAll(r.dir)
}

// crashRestart models a peer process crash: the in-memory peer (and any
// batch with its never-journaled staged documents) is gone; the journal
// survives and the reopened peer resumes from it.
func (r *runner) crashRestart() error {
	r.peer.Close()
	r.batchStaged = nil
	if err := r.openPeer(); err != nil {
		return err
	}
	ids := r.peer.PendingOpIDs()
	if len(r.queued) > 0 {
		if len(ids) != 1 || ids[0] != r.queuedID {
			return fmt.Errorf("journal after crash restored ops %v, checker expected pending op %d", ids, r.queuedID)
		}
	} else if len(ids) != 0 {
		return fmt.Errorf("journal after crash restored unexpected pending ops %v", ids)
	}
	// Best-effort immediate recovery; convergence is enforced at heals.
	_, err := r.peer.Recover(r.ownerTok)
	if r.core.takeKilled() {
		return r.crashRestart()
	}
	if err == nil {
		return r.settle()
	}
	return nil
}

// settle records that the peer reached a quiescent point: every queued
// oracle effect is now committed cluster state.
func (r *runner) settle() error {
	if n := r.peer.PendingOps(); n != 0 {
		return fmt.Errorf("mutation path reported convergence with %d ops still pending", n)
	}
	r.flushQueued()
	return nil
}

func (r *runner) flushQueued() {
	for _, m := range r.queued {
		if m.remove {
			r.oracle.Remove(m.doc)
		} else {
			r.oracle.Index(m.doc, m.content, m.group)
		}
	}
	r.queued = nil
	r.queuedID = 0
}

// reconcile aligns the oracle queue with the peer's pending state after
// a mutation call. newMuts are the call's own oracle effects; fromBatch
// marks a Batch.Flush, which empties the batch once it begins its
// operation.
func (r *runner) reconcile(callErr error, newMuts []oracleMut, fromBatch bool) error {
	ids := r.peer.PendingOpIDs()
	if len(ids) > 1 {
		return fmt.Errorf("peer reports %d pending ops, the engine should never exceed 1", len(ids))
	}
	if callErr == nil {
		if len(ids) != 0 {
			return fmt.Errorf("mutation returned nil with op %d still pending", ids[0])
		}
		r.flushQueued()
		for _, m := range newMuts {
			if m.remove {
				r.oracle.Remove(m.doc)
			} else {
				r.oracle.Index(m.doc, m.content, m.group)
			}
		}
		if fromBatch {
			r.batchStaged = nil
		}
		return nil
	}
	switch {
	case len(ids) == 0:
		// Nothing pending despite the error: any previously queued op
		// completed during the pre-mutation drain, and the new
		// operation was never begun (e.g. a delete that found the
		// document unknown, or a payload rejected before dispatch).
		r.flushQueued()
	case len(r.queued) > 0 && ids[0] == r.queuedID:
		// The old operation is still pending and the new one was never
		// begun: its effects are dropped (for a flush they stay in
		// batchStaged — the documents remain staged in the batch and a
		// later flush will carry them).
	default:
		// The old operation (if any) completed; the pending one is the
		// operation this call begat.
		r.flushQueued()
		r.queued = append([]oracleMut(nil), newMuts...)
		r.queuedID = ids[0]
		if fromBatch {
			r.batchStaged = nil
		}
	}
	return nil
}

// docInFlight reports whether doc has queued oracle effects (a begun
// but incomplete operation touches it).
func (r *runner) docInFlight(doc uint32) bool {
	for _, m := range r.queued {
		if m.doc == doc {
			return true
		}
	}
	return false
}

// exec runs one program operation.
func (r *runner) exec(op Op) error {
	switch op.Kind {
	case KindIndex:
		group := auth.GroupID(op.Group)
		err := r.peer.IndexDocument(r.ownerTok, peer.Document{ID: op.Doc, Content: op.Content, Group: group})
		killed := r.core.takeKilled()
		if rerr := r.reconcile(err, []oracleMut{{doc: op.Doc, content: op.Content, group: group}}, false); rerr != nil {
			return rerr
		}
		if killed {
			return r.crashRestart()
		}
		return nil

	case KindDelete:
		if !r.oracle.Live(op.Doc) && !r.docInFlight(op.Doc) {
			return nil // deleting a never-indexed document is a no-op
		}
		err := r.peer.DeleteDocument(r.ownerTok, op.Doc)
		killed := r.core.takeKilled()
		// peer.ErrUnknownDoc needs no special case: it leaves nothing
		// pending, so reconcile flushes the drained prefix and drops
		// the delete's effect.
		if rerr := r.reconcile(err, []oracleMut{{remove: true, doc: op.Doc}}, false); rerr != nil {
			return rerr
		}
		if killed {
			return r.crashRestart()
		}
		return nil

	case KindBatchAdd:
		doc := peer.Document{ID: op.Doc, Content: op.Content, Group: auth.GroupID(op.Group)}
		if err := r.batch.Add(doc); err != nil {
			return fmt.Errorf("batch add: %v", err)
		}
		r.batchStaged = append(r.batchStaged, oracleMut{doc: op.Doc, content: op.Content, group: auth.GroupID(op.Group)})
		return nil

	case KindBatchFlush:
		muts := append([]oracleMut(nil), r.batchStaged...)
		err := r.batch.Flush(r.ownerTok)
		killed := r.core.takeKilled()
		if rerr := r.reconcile(err, muts, true); rerr != nil {
			return rerr
		}
		if killed {
			return r.crashRestart()
		}
		return nil

	case KindSearch:
		return r.execSearch(op)

	case KindGroupAdd:
		id := r.userID[op.User%len(r.userID)]
		r.groups.Add(id, auth.GroupID(op.Group))
		r.oracle.AddUser(id, auth.GroupID(op.Group))
		return nil

	case KindGroupRemove:
		id := r.userID[op.User%len(r.userID)]
		r.groups.Remove(id, auth.GroupID(op.Group))
		r.oracle.RemoveUser(id, auth.GroupID(op.Group))
		return nil

	case KindServerDown:
		if r.core.downCount() < r.cfg.N-r.cfg.K {
			r.core.setDown(op.Server%r.cfg.N, true)
		}
		return nil

	case KindServerUp:
		r.core.setDown(op.Server%r.cfg.N, false)
		return nil

	case KindReshare:
		return r.execReshare()

	case KindCompact:
		if err := r.peer.CompactJournal(); err != nil {
			return fmt.Errorf("journal compaction failed: %v", err)
		}
		return nil

	case KindCrash:
		return r.crashRestart()

	case KindHeal:
		return r.execHeal()

	case KindJoinNode:
		return r.execJoinNode()

	case KindLeaveNode:
		return r.execLeaveNode(op)

	case KindStoreReopen:
		return r.execStoreReopen()

	case KindCrashCompact:
		return r.execCrashCompact()
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// execStoreReopen kills and recovers every disk store in place: its
// table is rebuilt from its log. Server stats survive (a
// restart loses no acknowledged writes), so quickInvariants' stats
// identity — and the next heal's oracle equality — catch any element a
// buggy replay loses. A no-op on non-disk engines.
func (r *runner) execStoreReopen() error {
	for _, d := range r.disks {
		if err := d.Reopen(); err != nil {
			return fmt.Errorf("disk store reopen: %v", err)
		}
	}
	return nil
}

// execCrashCompact crashes every disk store's compaction in its crash
// window (snapshot written, not renamed) and recovers by reopening —
// the compaction analog of KindCrash. Compact must report the simulated
// crash; anything else (including success with the hook armed) is a
// checker failure.
func (r *runner) execCrashCompact() error {
	for _, d := range r.disks {
		h := store.DiskSimHooks{CrashCompaction: true}
		if base := r.diskHooks(); base != nil {
			h.TearActiveTail = base.TearActiveTail
			h.SkipTornTruncate = base.SkipTornTruncate
		}
		d.SetSimHooks(&h)
		err := d.Compact()
		d.SetSimHooks(r.diskHooks())
		if !errors.Is(err, store.ErrSimulatedCrash) {
			return fmt.Errorf("crash-compaction hook armed but Compact returned %v", err)
		}
		if err := d.Reopen(); err != nil {
			return fmt.Errorf("reopen after crashed compaction: %v", err)
		}
	}
	return nil
}

// maxChurnNodes caps a slot's ring under generated churn so programs
// stay fast and leaves always have somewhere to drain to.
const maxChurnNodes = 6

// execJoinNode joins one fresh empty node (same name in every slot, so
// the rings keep partitioning identically); its lists move to it
// online, under the join.
func (r *runner) execJoinNode() error {
	if r.slots == nil {
		return nil
	}
	if len(r.slots[0].NodeNames()) >= maxChurnNodes {
		return nil
	}
	name := fmt.Sprintf("j%d", r.joined)
	r.joined++
	for i, sl := range r.slots {
		st, err := r.newStore(fmt.Sprintf("ix%d-%s", i, name))
		if err != nil {
			return err
		}
		if err := sl.AddNode(name, st); err != nil {
			return fmt.Errorf("join %s: %v", name, err)
		}
	}
	return nil
}

// execLeaveNode drains one ring node out of every slot. The node keeps
// serving until each of its lists cuts over.
func (r *runner) execLeaveNode(op Op) error {
	if r.slots == nil {
		return nil
	}
	names := r.slots[0].RingNodes()
	if len(names) <= 1 {
		return nil
	}
	name := names[op.Server%len(names)]
	for _, sl := range r.slots {
		if err := sl.RemoveNode(name); err != nil {
			return fmt.Errorf("leave %s: %v", name, err)
		}
	}
	return nil
}

func (r *runner) quiescent() bool {
	return len(r.queued) == 0 && r.peer.PendingOps() == 0
}

func (r *runner) execSearch(op Op) error {
	if r.core.downCount() > r.cfg.N-r.cfg.K {
		return nil // fewer than k servers reachable; retrieval cannot work
	}
	uid := op.User % len(r.userID)
	got, _, err := r.client.Search(r.userTok[uid], op.Query, 1000)
	if err != nil {
		return fmt.Errorf("search %v by %s failed: %v", op.Query, r.userID[uid], err)
	}
	if !r.quiescent() {
		// Mid-mutation both document generations may legitimately be
		// visible; answer sets are compared only at quiescent points.
		return nil
	}
	gotSet := make(map[uint32]bool, len(got))
	for _, res := range got {
		gotSet[res.DocID] = true
	}
	return r.compareSets(r.userID[uid], op.Query, gotSet)
}

func (r *runner) compareSets(user auth.UserID, query []string, gotSet map[uint32]bool) error {
	wantSet := r.oracle.Expected(user, query)
	for d := range wantSet {
		if !gotSet[d] {
			return fmt.Errorf("user %s query %v: doc %d missing (cluster %v, oracle %v)",
				user, query, d, setKeys(gotSet), setKeys(wantSet))
		}
	}
	for d := range gotSet {
		if !wantSet[d] {
			return fmt.Errorf("user %s query %v: doc %d must not match (cluster %v, oracle %v)",
				user, query, d, setKeys(gotSet), setKeys(wantSet))
		}
	}
	return nil
}

func (r *runner) execReshare() error {
	rng := rand.New(rand.NewSource(r.cfg.Seed ^ 0x4e5a4e + int64(r.step)))
	// On DHT tiers each slot routes deltas to the authoritative copies.
	if _, err := proactive.Reshare(r.servers, r.cfg.K, rng); err != nil && r.quiescent() {
		return fmt.Errorf("reshare refused on a quiescent cluster: %v", err)
	}
	// Mid-mutation the inventories legitimately diverge.
	return nil
}

// execHeal brings every server back, drives the pending mutation to
// convergence, and runs the full checker.
func (r *runner) execHeal() error {
	r.core.clearDown()
	for attempt := 0; r.peer.PendingOps() > 0 || attempt == 0; attempt++ {
		if attempt > healAttempts {
			return fmt.Errorf("cluster failed to converge after %d recovery attempts", attempt)
		}
		_, err := r.peer.Recover(r.ownerTok)
		if r.core.takeKilled() {
			if err := r.crashRestart(); err != nil {
				return err
			}
			continue
		}
		if err == nil {
			break
		}
	}
	if err := r.settle(); err != nil {
		return err
	}
	return r.fullCheck()
}

// namedStore is one physical store of a logical server, with its slot
// node name ("" for a server's own engine).
type namedStore struct {
	name string
	st   store.Store
}

// nodeStores returns logical server i's physical stores in
// deterministic name order: its engine, or its slot's node stores.
// Under churn the set changes op to op, so every checker enumerates it
// fresh.
func (r *runner) nodeStores(i int) []namedStore {
	if r.slots == nil {
		return []namedStore{{st: r.servers[i].Store()}}
	}
	var out []namedStore
	for _, name := range r.slots[i].NodeNames() {
		if st, ok := r.slots[i].Node(name); ok {
			out = append(out, namedStore{name: name, st: st})
		}
	}
	return out
}

// quickInvariants are the checks that hold at every step, even with a
// mutation in flight: the storage-engine contract on every server's
// engine and every slot node, every list a slot node holds on its ring
// owner (a move lands inside the op that started it), per-server stats
// consistency, and the runner's own queue discipline.
func (r *runner) quickInvariants() error {
	for i, srv := range r.servers {
		if err := store.CheckInvariants(srv.Store()); err != nil {
			return fmt.Errorf("server %d: %v", i, err)
		}
		if r.slots != nil {
			for _, ns := range r.nodeStores(i) {
				if err := store.CheckInvariants(ns.st); err != nil {
					return fmt.Errorf("server %d node %q: %v", i, ns.name, err)
				}
				for lid := range ns.st.ListLengths() {
					if owner, err := r.slots[i].RingOwnerOfList(lid); err != nil || owner != ns.name {
						return fmt.Errorf("server %d node %q holds list %d, ring owner %q (%v)", i, ns.name, lid, owner, err)
					}
				}
			}
		}
		// A slot counts its authoritative copies only, so migration
		// leaves this identity alone on DHT tiers too.
		stats := srv.StatsSnapshot()
		if live := stats.Inserts - stats.Deletes; live != int64(srv.Store().TotalElements()) {
			return fmt.Errorf("server %d: stats inserts-deletes = %d but %d elements stored (redelivery counted twice, or an element lost?)",
				i, live, srv.Store().TotalElements())
		}
	}
	if (len(r.queued) == 0) != (r.peer.PendingOps() == 0) {
		return fmt.Errorf("checker bookkeeping diverged: %d queued oracle effects, %d pending peer ops",
			len(r.queued), r.peer.PendingOps())
	}
	return nil
}

// fullCheck runs the quiescent-point checker: answer-set equivalence
// against the oracle for every user and term, zero orphaned global IDs
// on every server, and local/oracle document agreement.
func (r *runner) fullCheck() error {
	// Answer sets, exhaustively per term (and per user): the
	// decision-table-style completeness check — every cell of the
	// user x term matrix, not a sampled subset.
	toks := append([]auth.Token{r.ownerTok}, r.userTok...)
	names := append([]auth.UserID{"owner"}, r.userID...)
	for ui, tok := range toks {
		for _, term := range r.cfg.Vocabulary {
			got, _, err := r.client.Search(tok, []string{term}, 1000)
			if err != nil {
				return fmt.Errorf("quiescent search %q by %s failed: %v", term, names[ui], err)
			}
			gotSet := make(map[uint32]bool, len(got))
			for _, res := range got {
				gotSet[res.DocID] = true
			}
			if err := r.compareSets(names[ui], []string{term}, gotSet); err != nil {
				return err
			}
		}
		// Ranked top-k equivalence: the early-terminating block protocol
		// must reproduce the oracle's frequency-sum ranking exactly —
		// same documents, same scores, same tie order — per term and for
		// one multi-term query over the whole vocabulary.
		queries := make([][]string, 0, len(r.cfg.Vocabulary)+1)
		for _, term := range r.cfg.Vocabulary {
			queries = append(queries, []string{term})
		}
		queries = append(queries, r.cfg.Vocabulary)
		for _, q := range queries {
			got, stats, err := r.topkClient.SearchTopK(tok, q, topkCheckK)
			if err != nil {
				return fmt.Errorf("quiescent top-k search %v by %s failed: %v", q, names[ui], err)
			}
			r.topkRuns = append(r.topkRuns, stats.TA)
			want := r.oracle.ExpectedTopK(names[ui], q, topkCheckK)
			if len(got) != len(want) {
				return fmt.Errorf("top-k %v by %s: %d results, oracle %d (cluster %v, oracle %v)",
					q, names[ui], len(got), len(want), got, want)
			}
			for i := range got {
				if got[i].DocID != want[i].DocID || got[i].Score != want[i].Score {
					return fmt.Errorf("top-k %v by %s: rank %d = doc %d score %v, oracle doc %d score %v",
						q, names[ui], i, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
				}
			}
		}
	}

	// Zero orphans: every logical server holds exactly the committed
	// element set — nothing lost, nothing left behind by an interrupted
	// update or migration, nothing duplicated across a slot's nodes.
	expected := r.peer.ElementGIDs()
	for i := 0; i < r.cfg.N; i++ {
		seen := make(map[posting.GlobalID]bool, len(expected))
		for _, ns := range r.nodeStores(i) {
			for lid := range ns.st.ListLengths() {
				for _, sh := range ns.st.Scan(lid, nil) {
					if _, want := expected[sh.GlobalID]; !want {
						return fmt.Errorf("server %d node %q: orphaned element %d in list %d",
							i, ns.name, sh.GlobalID, lid)
					}
					if seen[sh.GlobalID] {
						return fmt.Errorf("server %d: element %d stored on two nodes", i, sh.GlobalID)
					}
					seen[sh.GlobalID] = true
				}
			}
		}
		if len(seen) != len(expected) {
			return fmt.Errorf("server %d holds %d elements, peer expects %d", i, len(seen), len(expected))
		}
	}

	// Peer/oracle document agreement.
	if got, want := r.peer.NumDocs(), r.oracle.NumDocs(); got != want {
		return fmt.Errorf("peer hosts %d documents, oracle %d", got, want)
	}
	for _, id := range r.oracle.DocIDs() {
		doc, ok := r.peer.Document(id)
		if !ok {
			return fmt.Errorf("document %d live in the oracle but unknown to the peer", id)
		}
		if g, _ := r.oracle.GroupOf(id); g != doc.Group {
			return fmt.Errorf("document %d group %d on the peer, %d in the oracle", id, doc.Group, g)
		}
	}
	return nil
}

// checkJournalRestore is the end-of-run journal/state convergence
// check: a fault-free restart from the journal must reproduce the
// peer's exact document and element state.
func (r *runner) checkJournalRestore() error {
	beforeDocs := r.peer.DocIDs()
	beforeGids := r.peer.ElementGIDs()
	contents := make(map[uint32]string, len(beforeDocs))
	for _, id := range beforeDocs {
		doc, _ := r.peer.Document(id)
		contents[id] = doc.Content
	}
	r.peer.Close()
	if err := r.openPeer(); err != nil {
		return err
	}
	if n := r.peer.PendingOps(); n != 0 {
		return fmt.Errorf("restore after convergence found %d pending ops", n)
	}
	afterDocs := r.peer.DocIDs()
	if len(afterDocs) != len(beforeDocs) {
		return fmt.Errorf("journal restore: %d documents, had %d", len(afterDocs), len(beforeDocs))
	}
	for _, id := range afterDocs {
		doc, _ := r.peer.Document(id)
		if doc.Content != contents[id] {
			return fmt.Errorf("journal restore: document %d content diverged", id)
		}
	}
	afterGids := r.peer.ElementGIDs()
	if len(afterGids) != len(beforeGids) {
		return fmt.Errorf("journal restore: %d element refs, had %d", len(afterGids), len(beforeGids))
	}
	for gid, doc := range beforeGids {
		if afterGids[gid] != doc {
			return fmt.Errorf("journal restore: element %d moved from doc %d to %d", gid, doc, afterGids[gid])
		}
	}
	return nil
}

func setKeys(set map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
