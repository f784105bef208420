package load

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"zerber"
	"zerber/internal/client"
	"zerber/internal/corpus"
	"zerber/internal/dht"
	"zerber/internal/peer"
	"zerber/internal/transport"
	"zerber/internal/workload"
)

// resultsPerSearch is the ranked result count every soak search asks for.
const resultsPerSearch = 10

// Run executes one soak: it builds a synthetic corpus and query log,
// wires a real multi-server cluster whose index servers listen on
// loopback TCP, preloads the steady-state document set, and then drives
// Duration of closed-loop mixed traffic — concurrent Zipfian searches,
// per-peer index/update/delete mutations, group-membership churn, node
// join/leave churn with its online list migration, and periodic
// proactive resharing — counting successes and errors per operation
// kind. Once the workers stop it checks the stored state (checkState);
// a violation there is returned as an error. Result.Check judges the
// counts.
//
// Proactive resharing snapshots and compares the servers' element
// inventories, so a mutation landing mid-round would abort it (and a
// delta applied to some servers but not others would destroy shares);
// the harness therefore serializes resharing against mutations with a
// maintenance lock, while searches keep flowing throughout — resharing
// preserves the shared secrets, so queries keep working (§5.1).
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Workload inputs: the ODP-like corpus and a query log whose term
	// frequencies are Zipfian and imperfectly correlated with document
	// frequencies (§7.4.3).
	corp := corpus.SyntheticODP(corpus.ODPConfig{
		Seed:       cfg.Seed,
		NumDocs:    cfg.CorpusDocs,
		VocabSize:  cfg.VocabSize,
		NumGroups:  cfg.Groups,
		MeanDocLen: cfg.MeanDocLen,
	})
	qlog := corpus.SyntheticQueryLog(corpus.QueryLogConfig{
		Seed:       cfg.Seed + 1,
		NumQueries: cfg.Queries,
	}, corp.Vocab)
	logf("load: corpus %d docs, %d terms, %d postings; query log %d queries (%d distinct terms)",
		len(corp.Docs), len(corp.Vocab), corp.TotalPostings(), len(qlog.Queries), len(qlog.TermFreq))

	opts := zerber.Options{
		N:           cfg.Servers,
		K:           cfg.K,
		Seed:        cfg.Seed,
		StoreEngine: cfg.StoreEngine,
		DHTNodes:    cfg.DHTNodes,
	}
	if cfg.StoreEngine == "disk" {
		// Root the logs in a run-scoped directory so the run
		// leaves nothing behind.
		dir, err := os.MkdirTemp("", "zerber-load-store-")
		if err != nil {
			return nil, fmt.Errorf("load: creating store dir: %w", err)
		}
		defer os.RemoveAll(dir)
		opts.StoreDir = dir
	}
	cluster, err := zerber.NewCluster(corp.DocFreqs(), opts)
	if err != nil {
		return nil, fmt.Errorf("load: building cluster: %w", err)
	}

	rng := mrand.New(mrand.NewSource(cfg.Seed + 2))

	// Writers: one per peer, member of every group so any document can
	// be indexed. Searchers: each joins about half the groups, so
	// access-control filtering is exercised on every query. Churn users
	// are a disjoint set whose memberships flap in the background.
	writerToks := make([]zerber.Token, cfg.Peers)
	for i := range writerToks {
		user := zerber.UserID(fmt.Sprintf("writer-%d", i))
		for g := 1; g <= cfg.Groups; g++ {
			cluster.AddUser(user, zerber.GroupID(g))
		}
		writerToks[i] = cluster.IssueToken(user)
	}
	searcherToks := make([]zerber.Token, cfg.Searchers)
	for i := range searcherToks {
		user := zerber.UserID(fmt.Sprintf("searcher-%d", i))
		joined := 0
		for g := 1; g <= cfg.Groups; g++ {
			if rng.Float64() < 0.5 {
				cluster.AddUser(user, zerber.GroupID(g))
				joined++
			}
		}
		if joined == 0 {
			cluster.AddUser(user, zerber.GroupID(rng.Intn(cfg.Groups)+1))
		}
		searcherToks[i] = cluster.IssueToken(user)
	}
	const churnUsers = 4

	// The cluster's index servers listen on loopback; every peer and
	// searcher operation below crosses the binary wire.
	apis, shutdown, err := serveBinary(cluster)
	if err != nil {
		return nil, err
	}
	defer shutdown()

	// Every peer journals its mutations — the production write path,
	// fsyncs included.
	journalDir, err := os.MkdirTemp("", "zerber-load-*")
	if err != nil {
		return nil, fmt.Errorf("load: journal dir: %w", err)
	}
	defer os.RemoveAll(journalDir)

	// One mutator per peer, each owning a disjoint partition of the
	// corpus (document IDs are cluster-unique, §5.4.2).
	mutators := make([]*mutator, cfg.Peers)
	for i := range mutators {
		p, err := peer.New(peer.Config{
			Name:        fmt.Sprintf("site%d", i),
			Servers:     apis,
			K:           cfg.K,
			Table:       cluster.Table(),
			Vocab:       cluster.Vocab(),
			JournalPath: fmt.Sprintf("%s/site%d.journal", journalDir, i),
		})
		if err != nil {
			return nil, fmt.Errorf("load: creating peer %d: %w", i, err)
		}
		var docs []corpus.Doc
		for j := i; j < len(corp.Docs); j += cfg.Peers {
			docs = append(docs, corp.Docs[j])
		}
		mutators[i] = &mutator{
			p:      p,
			tok:    writerToks[i],
			docs:   docs,
			vocab:  corp.Vocab,
			target: cfg.LiveDocs / cfg.Peers,
			rng:    mrand.New(mrand.NewSource(cfg.Seed + 100 + int64(i))),
			rev:    make(map[int]int),
		}
	}

	logf("load: preloading %d documents across %d peers", cfg.LiveDocs, cfg.Peers)
	preStart := time.Now()
	for i, m := range mutators {
		if err := m.preload(); err != nil {
			return nil, fmt.Errorf("load: preloading peer %d: %w", i, err)
		}
	}
	logf("load: preload done in %v", time.Since(preStart).Round(time.Millisecond))

	cl, err := client.New(apis, cfg.K, cluster.Table(), cluster.Vocab())
	if err != nil {
		return nil, fmt.Errorf("load: building search client: %w", err)
	}

	recs := map[string]*tally{
		"search": {}, "searchk": {}, "index": {}, "update": {}, "delete": {},
		"churn": {}, "reshare": {},
	}
	if cfg.NodeChurnEvery > 0 {
		recs["nodechurn"] = &tally{}
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()
	var wg sync.WaitGroup
	var maint sync.RWMutex // mutations (read side) vs resharing (write side)

	// Searchers: each samples the query log's frequency model with its
	// own deterministic stream. Odd-indexed searchers drive the
	// early-terminating top-k block protocol ("searchk") so both
	// retrieval paths see the same Zipfian traffic.
	for i := 0; i < cfg.Searchers; i++ {
		sampler := workload.NewQuerySampler(qlog.Queries, cfg.Seed+200+int64(i))
		tok := searcherToks[i]
		topk := i%2 == 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				q := sampler.Next()
				var err error
				if topk {
					_, _, err = cl.SearchTopKContext(ctx, tok, q, resultsPerSearch)
				} else {
					_, _, err = cl.SearchContext(ctx, tok, q, resultsPerSearch)
				}
				if ctx.Err() != nil {
					return // shutdown-aborted call: neither success nor error
				}
				if topk {
					recs["searchk"].done(err)
				} else {
					recs["search"].done(err)
				}
			}
		}()
	}

	// Mutators: sustained index/update/delete churn around the
	// steady-state document count.
	for _, m := range mutators {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				maint.RLock()
				kind, err := m.step()
				maint.RUnlock()
				if ctx.Err() != nil && err != nil {
					return
				}
				recs[kind].done(err)
			}
		}()
	}

	// Group churn: memberships of the churn users flap on the shared
	// group table, taking effect immediately (§4).
	wg.Add(1)
	go func() {
		defer wg.Done()
		crng := mrand.New(mrand.NewSource(cfg.Seed + 300))
		member := make(map[int]map[zerber.GroupID]bool, churnUsers)
		ticker := time.NewTicker(cfg.ChurnInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				u := crng.Intn(churnUsers)
				g := zerber.GroupID(crng.Intn(cfg.Groups) + 1)
				user := zerber.UserID(fmt.Sprintf("churn-%d", u))
				if member[u] == nil {
					member[u] = make(map[zerber.GroupID]bool)
				}
				if member[u][g] {
					cluster.RemoveUser(user, g)
				} else {
					cluster.AddUser(user, g)
				}
				member[u][g] = !member[u][g]
				recs["churn"].done(nil)
			}
		}
	}()

	// Node churn: joins a fresh node to every share slot, lets the
	// migration land under live traffic, then drains it back out. It
	// takes no maintenance lock: resharing runs across a move (each slot
	// refreshes the authoritative copy and marks a moving list's IDs
	// dirty), so rounds and topology changes race freely.
	if cfg.NodeChurnEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(cfg.NodeChurnEvery)
			defer ticker.Stop()
			seq, joined := 0, ""
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					var err error
					if joined == "" {
						joined = fmt.Sprintf("x%d", seq)
						seq++
						err = cluster.JoinNode(joined)
					} else {
						err = cluster.LeaveNode(joined)
						joined = ""
					}
					recs["nodechurn"].done(err)
					if err != nil {
						logf("load: node churn step failed: %v", err)
					}
				}
			}
		}()
	}

	// Proactive resharing: periodic rounds under the maintenance lock
	// (see the function comment), whatever migration is in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(cfg.ReshareInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				maint.Lock()
				n, err := cluster.ProactiveReshare()
				maint.Unlock()
				recs["reshare"].done(err)
				if err != nil {
					logf("load: reshare round failed: %v", err)
				} else {
					logf("load: reshared %d elements", n)
				}
			}
		}
	}()

	wg.Wait()

	if err := checkState(cluster, mutators); err != nil {
		return nil, err
	}
	res := make(Result, len(recs))
	for kind, t := range recs {
		res[kind] = Counts{Ops: t.ops.Load(), Errors: t.errs.Load()}
	}
	return res, nil
}

// checkState is the soak's end-of-run invariant, the model checker's
// zero-orphans rule applied after real concurrency: with every worker
// stopped, and so every migration landed, no peer has a pending
// operation and every share slot's server stores exactly as many
// elements as the peers committed — under DHTNodes, so do the slot's
// node stores together. Churn, migration and resharing may neither lose
// an element nor leave one behind.
func checkState(cluster *zerber.Cluster, mutators []*mutator) error {
	want := 0
	for i, m := range mutators {
		if n := m.p.PendingOps(); n != 0 {
			return fmt.Errorf("load: after the run: peer %d has %d pending operations", i, n)
		}
		want += len(m.p.ElementGIDs())
	}
	for _, s := range cluster.Servers() {
		if got := s.Store().TotalElements(); got != want {
			return fmt.Errorf("load: after the run: slot x=%d stores %d elements, peers committed %d", s.XCoord(), got, want)
		}
		// A slot counts authoritative copies only; its node stores
		// together must hold no more, or a source copy outlived its
		// cutover.
		if sl, ok := s.Store().(*dht.Slot); ok {
			held := 0
			for _, name := range sl.NodeNames() {
				node, _ := sl.Node(name)
				held += node.TotalElements()
			}
			if held != want {
				return fmt.Errorf("load: after the run: slot x=%d's nodes hold %d elements, peers committed %d", s.XCoord(), held, want)
			}
		}
	}
	return nil
}

// serveBinary puts every index server behind a loopback listener
// speaking the binary framed protocol and dials it back through one
// persistent pipelined client per server, so all traffic pays real
// encoding and TCP round trips.
func serveBinary(cluster *zerber.Cluster) ([]transport.API, func(), error) {
	var servers []*transport.BinaryServer
	var clients []*transport.BinaryClient
	shutdown := func() {
		for _, c := range clients {
			c.Close()
		}
		for _, bs := range servers {
			bs.Close()
		}
	}
	var apis []transport.API
	for i, s := range cluster.APIs() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, nil, fmt.Errorf("load: listening for server %d: %w", i, err)
		}
		servers = append(servers, transport.ServeBinary(ln, s))
		api, err := transport.DialBinary(ln.Addr().String(), 30*time.Second)
		if err != nil {
			shutdown()
			return nil, nil, fmt.Errorf("load: dialing server %d: %w", i, err)
		}
		clients = append(clients, api)
		apis = append(apis, api)
	}
	return apis, shutdown, nil
}

// mutator drives one peer's document lifecycle. Peer mutations
// serialize internally, so one goroutine per peer is the natural
// parallelism.
type mutator struct {
	p      *peer.Peer
	tok    zerber.Token
	docs   []corpus.Doc
	vocab  []string
	target int
	rng    *mrand.Rand

	live []int // indexes into docs currently in the central index
	free []int // indexes released by delete, reusable once docs is exhausted
	next int   // next never-indexed doc
	rev  map[int]int
}

// preload indexes the steady-state document set (not counted).
func (m *mutator) preload() error {
	for len(m.live) < m.target {
		i, ok := m.takeUnindexed()
		if !ok {
			return errors.New("mutator ran out of documents during preload")
		}
		if _, err := m.index(i); err != nil {
			return err
		}
	}
	return nil
}

// step performs one mutation chosen to hold the live count near target:
// below target it indexes, at target it mixes updates with occasional
// deletes (which later index operations refill).
func (m *mutator) step() (kind string, err error) {
	if len(m.live) < m.target {
		if i, ok := m.takeUnindexed(); ok {
			_, err = m.index(i)
			return "index", err
		}
	}
	if len(m.live) > m.target/2 && m.rng.Float64() < 0.3 {
		return "delete", m.delete()
	}
	return "update", m.update()
}

func (m *mutator) takeUnindexed() (int, bool) {
	if m.next < len(m.docs) {
		m.next++
		return m.next - 1, true
	}
	if n := len(m.free); n > 0 {
		i := m.free[n-1]
		m.free = m.free[:n-1]
		return i, true
	}
	return 0, false
}

func (m *mutator) index(i int) (uint32, error) {
	d := m.docs[i]
	err := m.p.IndexDocument(m.tok, peer.Document{
		ID:      d.ID,
		Name:    fmt.Sprintf("doc-%d", d.ID),
		Content: m.content(i),
		Group:   zerber.GroupID(d.Group),
	})
	// On error the peer may still have committed the document via a
	// pending-op drain; trust its view over ours.
	if _, indexed := m.p.Document(d.ID); indexed {
		m.live = append(m.live, i)
	} else {
		m.free = append(m.free, i)
	}
	return d.ID, err
}

func (m *mutator) delete() error {
	j := m.rng.Intn(len(m.live))
	i := m.live[j]
	err := m.p.DeleteDocument(m.tok, m.docs[i].ID)
	if _, indexed := m.p.Document(m.docs[i].ID); !indexed {
		m.live[j] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
		m.free = append(m.free, i)
		delete(m.rev, i)
	}
	return err
}

func (m *mutator) update() error {
	i := m.live[m.rng.Intn(len(m.live))]
	m.rev[i]++
	d := m.docs[i]
	return m.p.UpdateDocument(m.tok, peer.Document{
		ID:      d.ID,
		Name:    fmt.Sprintf("doc-%d", d.ID),
		Content: m.content(i),
		Group:   zerber.GroupID(d.Group),
	})
}

// content renders a document's term bag as indexable text, with a small
// random tail of extra vocabulary terms so each update changes a
// realistic fraction of the document's postings.
func (m *mutator) content(i int) string {
	d := m.docs[i]
	terms := make([]string, 0, len(d.Counts))
	for t := range d.Counts {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	var sb strings.Builder
	for _, t := range terms {
		for c := d.Counts[t]; c > 0; c-- {
			sb.WriteString(t)
			sb.WriteByte(' ')
		}
	}
	if m.rev[i] > 0 {
		for e := 0; e < 3; e++ {
			sb.WriteString(m.vocab[m.rng.Intn(len(m.vocab))])
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}
