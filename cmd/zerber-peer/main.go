// Command zerber-peer is the document owner's command (paper §5.4): it
// builds the public mapping table from its corpus statistics, indexes a
// directory of documents into the Zerber cluster, and serves result
// snippets and full documents to authorized searchers over HTTP — the
// peer half of Algorithm 2.
//
// Usage:
//
//	# once: learn the corpus statistics and publish the mapping table
//	zerber-peer -build-table -r 16 -docs ./shared -table table.json
//
//	# index the directory, then serve snippets
//	zerber-peer -addr :8301 \
//	            -servers h1:8291,h2:8291,h3:8291 \
//	            -k 2 -key <hex> -user alice -group 1 \
//	            -table table.json -groups alice:1,bob:1 \
//	            -docs ./shared -journal ./jnl
//
// The public vocabulary is not a file: it is the table's frequent terms
// in sorted order (§6.4), so every peer and searcher that loads the same
// table numbers the terms alike.
//
// Every run reconciles the directory against the mutation journal under
// -journal (default the working directory; it cannot be turned off):
// the first run indexes every document in one shuffled batch (§5.4.1),
// and a rerun on the same journal sends only what changed and deletes
// the documents whose files vanished. An empty -addr (-addr="")
// reconciles and exits instead of serving snippets. A docmap.json
// mapping document IDs to file names is written next to the table for
// zerber-search to label results.
//
// -groups replicates the user-group table locally so the peer can check
// snippet access itself (each site trusts its own group view, like each
// index server does).
//
// The index servers in -servers are reached over the binary framed
// protocol, the only one they speak (host:port or binary://host:port);
// HTTP here is only the peer's own snippet and document service.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"zerber/internal/auth"
	"zerber/internal/confidential"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/textproc"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

func main() {
	var (
		addr       = flag.String("addr", ":8301", "snippet service listen address (empty = reconcile the directory and exit)")
		servers    = flag.String("servers", "", "comma-separated index server addresses (host:port or binary://host:port; index servers speak only the binary protocol)")
		k          = flag.Int("k", 2, "secret-sharing threshold")
		keyHex     = flag.String("key", "", "enterprise auth key (hex)")
		user       = flag.String("user", "", "owner user ID")
		group      = flag.Uint("group", 1, "group to share the documents with")
		tablePath  = flag.String("table", "table.json", "mapping table file")
		docsDir    = flag.String("docs", ".", "directory of documents (*.txt, *.md)")
		groupsArg  = flag.String("groups", "", "user:group memberships for the local access check")
		name       = flag.String("name", "zerber-peer", "peer/site name")
		journal    = flag.String("journal", ".", "mutation journal directory (crash-safe, exactly-once updates; a rerun sends only what changed)")
		buildTable = flag.Bool("build-table", false, "build the mapping table from the corpus statistics of -docs, write -table and exit")
		r          = flag.Float64("r", 16, "confidentiality parameter r the table must meet; the number of merged lists follows from it (build-table)")
		heuristic  = flag.String("heuristic", "DFM", "merging heuristic: DFM, BFM, UDM (build-table)")
	)
	flag.Parse()

	if *buildTable {
		h := merging.Heuristic(*heuristic)
		table, err := writeTable(*docsDir, *tablePath, *r, h)
		if err != nil {
			log.Fatalf("zerber-peer: %v", err)
		}
		fmt.Printf("built %s table for r=%.4g: M=%d, realized r=%.4g (1/r=%.4g), %d listed terms\n",
			h, *r, table.M(), table.RValue(), table.MinMass(), table.NumListed())
		return
	}
	if *servers == "" || *keyHex == "" || *user == "" {
		log.Fatal("zerber-peer: -servers, -key and -user are required")
	}
	if *journal == "" {
		log.Fatal("zerber-peer: -journal must name a directory: without a journal a rerun would index every document again under fresh IDs")
	}
	key, err := hex.DecodeString(*keyHex)
	if err != nil {
		log.Fatalf("zerber-peer: bad -key: %v", err)
	}
	groupTable, _, err := auth.ParseGroups(*groupsArg)
	if err != nil {
		log.Fatalf("zerber-peer: -groups: %v", err)
	}

	var table merging.Table
	readJSON(*tablePath, &table)

	var apis []transport.API
	for _, u := range strings.Split(*servers, ",") {
		c, err := transport.DialBinary(strings.TrimSpace(u), 10*time.Second)
		if err != nil {
			log.Fatalf("zerber-peer: %v", err)
		}
		apis = append(apis, c)
	}
	if err := os.MkdirAll(*journal, 0o755); err != nil {
		log.Fatalf("zerber-peer: journal directory: %v", err)
	}
	p, err := peer.New(peer.Config{
		Name: *name, Servers: apis, K: *k, Table: &table,
		Vocab:       vocab.NewFromTerms(table.ListedTerms()),
		JournalPath: filepath.Join(*journal, *name+".journal"),
	})
	if err != nil {
		log.Fatal(err)
	}

	svc := auth.NewServiceWithKey(key, time.Hour)
	tok := svc.Issue(auth.UserID(*user))

	// The peer may have crashed mid-mutation: converge the in-flight
	// operations before indexing anything new.
	if n := p.PendingOps(); n > 0 {
		done, err := p.Recover(tok)
		if err != nil {
			log.Fatalf("zerber-peer: recovering %d in-flight mutations: %v", n, err)
		}
		fmt.Printf("%s: recovered %d in-flight mutation(s) from the journal\n", *name, done)
	}

	names, elements, removed, err := reconcile(p, tok, *docsDir, auth.GroupID(*group))
	if err != nil {
		log.Fatalf("zerber-peer: %v", err)
	}
	if removed > 0 {
		fmt.Printf("%s: deleted %d document(s) whose files vanished\n", *name, removed)
	}
	// Publish the docID -> filename map next to the table so
	// zerber-search can label results.
	docmap := make(map[uint32]string, len(names))
	for i, file := range names {
		docmap[uint32(i+1)] = file
	}
	if data, err := json.MarshalIndent(docmap, "", "  "); err == nil {
		mapPath := filepath.Join(filepath.Dir(*tablePath), "docmap.json")
		if err := os.WriteFile(mapPath, data, 0o644); err != nil {
			log.Printf("zerber-peer: writing %s: %v", mapPath, err)
		}
	}
	fmt.Printf("%s: indexed %d documents (at most %d elements sent) to %d servers\n",
		*name, len(names), elements, len(apis))
	if *addr == "" {
		if err := p.Close(); err != nil {
			log.Fatalf("zerber-peer: closing the journal: %v", err)
		}
		return
	}
	fmt.Printf("%s: serving snippets on %s\n", *name, *addr)
	log.Fatal(http.ListenAndServe(*addr, peer.NewHTTPHandler(p, svc, groupTable)))
}

// writeTable builds the public mapping table that meets r from the
// corpus statistics of the documents in dir — each term's document
// frequency — and writes it to path. A table that cannot meet r is
// refused, and nothing is written.
func writeTable(dir, path string, r float64, h merging.Heuristic) (*merging.Table, error) {
	names, err := readDir(dir)
	if err != nil {
		return nil, err
	}
	dfs := make(map[string]int)
	for _, file := range names {
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			return nil, err
		}
		for term := range textproc.TermCounts(string(data)) {
			dfs[term]++
		}
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		return nil, err
	}
	table, err := chooseTable(dist, h, r)
	if err != nil {
		return nil, fmt.Errorf("building table: %w", err)
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", path, err)
	}
	return table, os.WriteFile(path, data, 0o644)
}

// chooseTable returns the table with the most lists that meets r — the
// paper's "choosing a target value for r" left as future work (§7.5),
// turned around: the operator states r and M follows. Formula (7) makes
// r = 1 / (the least list mass), so every table has r >= 1 and r >= M,
// and more lists than r needs only cost query overhead (formula (6)).
// DFM and UDM bisect M over [1, min(⌊r⌋, listed terms)]; M = 1 puts
// every term in one list of mass 1, so it meets any r >= 1. BFM finds
// its own M from r and is only checked. If r(M) is not monotone the
// bisection may settle on a smaller M than the best: that costs query
// overhead, never confidentiality, since only a table tested against r
// is returned.
func chooseTable(dist *confidential.Distribution, h merging.Heuristic, r float64) (*merging.Table, error) {
	if !(r >= 1) || math.IsInf(r, 1) {
		return nil, fmt.Errorf("r=%g cannot be met: every table has r >= 1 (formula (7))", r)
	}
	build := func(m int) (*merging.Table, error) {
		return merging.Build(dist, merging.Options{Heuristic: h, M: m, R: r})
	}
	if h == merging.BFM {
		table, err := build(0)
		if err != nil {
			return nil, err
		}
		if !confidential.SatisfiesR(table.MinMass(), r) {
			return nil, fmt.Errorf("the BFM table reaches r=%.4g, not the r=%.4g asked for", table.RValue(), r)
		}
		return table, nil
	}
	best, err := build(1)
	if err != nil {
		return nil, err
	}
	lo, hi := 1, dist.Len()
	if r < float64(hi) {
		hi = int(r)
	}
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		table, err := build(mid)
		if err != nil {
			return nil, err
		}
		if confidential.SatisfiesR(table.MinMass(), r) {
			best, lo = table, mid
		} else {
			hi = mid - 1
		}
	}
	return best, nil
}

// reconcile brings the index in line with a document directory. Every
// file goes into one batch, so a restart re-indexes under the same
// shuffle as the first run, and the flush sends only what changed
// against the peer's local index (nothing, for an unchanged file).
// Document IDs are positional (sorted filename order): renaming or
// inserting files reassigns IDs and the flush rewrites the shifted
// documents — correct, just not traffic-free. Hosted documents past the
// directory's end belong to files removed since the last run and are
// deleted; they would otherwise stay searchable forever. It returns the
// file names (names[i] is document i+1), the elements the batch queued
// (an upper bound of those sent) and the number of documents deleted.
func reconcile(p *peer.Peer, tok auth.Token, dir string, group auth.GroupID) (names []string, elements, removed int, err error) {
	names, err = readDir(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	batch := p.NewBatch()
	for i, file := range names {
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			return nil, 0, 0, err
		}
		doc := peer.Document{ID: uint32(i + 1), Name: file, Content: string(data), Group: group}
		if err := batch.Add(doc); err != nil {
			return nil, 0, 0, fmt.Errorf("%s: %w", file, err)
		}
	}
	elements = batch.Elements()
	if err := batch.Flush(tok); err != nil {
		return nil, 0, 0, fmt.Errorf("indexing: %w", err)
	}
	for _, id := range p.DocIDs() {
		if int(id) > len(names) {
			if err := p.DeleteDocument(tok, id); err != nil {
				return nil, 0, 0, fmt.Errorf("removing vanished doc %d: %w", id, err)
			}
			removed++
		}
	}
	return names, elements, removed, nil
}

func readDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := strings.ToLower(filepath.Ext(e.Name()))
		if ext == ".txt" || ext == ".md" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .txt/.md documents under %s", dir)
	}
	return names, nil
}

func readJSON(path string, v any) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("zerber-peer: %v (run zerber-peer -build-table first?)", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		log.Fatalf("zerber-peer: decoding %s: %v", path, err)
	}
}
