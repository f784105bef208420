// Command zerber-peer runs a document owner's site daemon: it indexes a
// directory of documents into the Zerber cluster (one shuffled batch)
// and then serves result snippets and full documents to authorized
// searchers over HTTP — the peer half of Algorithm 2.
//
// Usage:
//
//	zerber-peer -addr :8301 \
//	            -servers h1:8291,h2:8291,h3:8291 \
//	            -k 2 -key <hex> -user alice -group 1 \
//	            -table table.json -vocab vocab.json \
//	            -groups alice:1,bob:1 \
//	            -docs ./shared
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
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"zerber/internal/auth"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

func main() {
	var (
		addr      = flag.String("addr", ":8301", "snippet service listen address")
		servers   = flag.String("servers", "", "comma-separated index server addresses (host:port or binary://host:port; index servers speak only the binary protocol)")
		k         = flag.Int("k", 2, "secret-sharing threshold")
		keyHex    = flag.String("key", "", "enterprise auth key (hex)")
		user      = flag.String("user", "", "owner user ID")
		group     = flag.Uint("group", 1, "group to share the documents with")
		tablePath = flag.String("table", "table.json", "mapping table file")
		vocabPath = flag.String("vocab", "vocab.json", "vocabulary file")
		docsDir   = flag.String("docs", ".", "directory of documents (*.txt, *.md)")
		groupsArg = flag.String("groups", "", "user:group memberships for the local access check")
		name      = flag.String("name", "zerber-peer", "peer/site name")
		journal   = flag.String("journal", "", "mutation journal directory (crash-safe, exactly-once updates; empty = no journal)")
	)
	flag.Parse()
	if *servers == "" || *keyHex == "" || *user == "" {
		log.Fatal("zerber-peer: -servers, -key and -user are required")
	}
	key, err := hex.DecodeString(*keyHex)
	if err != nil {
		log.Fatalf("zerber-peer: bad -key: %v", err)
	}

	var table merging.Table
	readJSON(*tablePath, &table)
	voc := vocab.New()
	readJSON(*vocabPath, voc)

	var apis []transport.API
	for _, u := range strings.Split(*servers, ",") {
		c, err := transport.DialBinary(strings.TrimSpace(u), 10*time.Second)
		if err != nil {
			log.Fatalf("zerber-peer: %v", err)
		}
		apis = append(apis, c)
	}
	cfg := peer.Config{
		Name: *name, Servers: apis, K: *k, Table: &table, Vocab: voc,
	}
	if *journal != "" {
		if err := os.MkdirAll(*journal, 0o755); err != nil {
			log.Fatalf("zerber-peer: journal directory: %v", err)
		}
		cfg.JournalPath = filepath.Join(*journal, *name+".journal")
	}
	p, err := peer.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	groupTable := auth.NewGroupTable()
	if *groupsArg != "" {
		for _, pair := range strings.Split(*groupsArg, ",") {
			parts := strings.SplitN(strings.TrimSpace(pair), ":", 2)
			if len(parts) != 2 {
				log.Fatalf("zerber-peer: bad -groups entry %q", pair)
			}
			gid, err := strconv.ParseUint(parts[1], 10, 32)
			if err != nil {
				log.Fatalf("zerber-peer: bad group in %q: %v", pair, err)
			}
			groupTable.Add(auth.UserID(parts[0]), auth.GroupID(gid))
		}
	}

	svc := auth.NewServiceWithKey(key, time.Hour)
	tok := svc.Issue(auth.UserID(*user))

	// A journaled peer may have crashed mid-mutation: converge the
	// in-flight operations before indexing anything new.
	if n := p.PendingOps(); n > 0 {
		done, err := p.Recover(tok)
		if err != nil {
			log.Fatalf("zerber-peer: recovering %d in-flight mutations: %v", n, err)
		}
		fmt.Printf("%s: recovered %d in-flight mutation(s) from the journal\n", *name, done)
	}

	// Index the directory in one shuffled batch. Documents the journal
	// already knows go through the diff-update path instead: re-batching
	// them would insert a second generation of elements under fresh
	// global IDs, while the update sends only what changed (nothing, for
	// an unchanged file). Document IDs are positional (sorted filename
	// order), so renaming or inserting files reassigns IDs and the
	// restart rewrites the shifted documents — correct, just not
	// traffic-free; a shrunken directory is reconciled below by deleting
	// the journal-known IDs past the end.
	batch := p.NewBatch()
	names := readDir(*docsDir)
	updated := 0
	for i, file := range names {
		data, err := os.ReadFile(filepath.Join(*docsDir, file))
		if err != nil {
			log.Fatalf("zerber-peer: %v", err)
		}
		doc := peer.Document{
			ID: uint32(i + 1), Name: file, Content: string(data), Group: auth.GroupID(*group),
		}
		if _, known := p.Document(doc.ID); known {
			if err := p.UpdateDocument(tok, doc); err != nil {
				log.Fatalf("zerber-peer: %s: %v", file, err)
			}
			updated++
			continue
		}
		if err := batch.Add(doc); err != nil {
			log.Fatalf("zerber-peer: %s: %v", file, err)
		}
	}
	elements := batch.Elements()
	if err := batch.Flush(tok); err != nil {
		log.Fatalf("zerber-peer: indexing: %v", err)
	}
	if updated > 0 {
		fmt.Printf("%s: diff-updated %d journal-known document(s)\n", *name, updated)
	}
	// Files removed since the last run: their journal-known documents
	// (IDs past the current directory's end) would otherwise stay
	// indexed — and searchable — forever.
	removed := 0
	for _, id := range p.DocIDs() {
		if int(id) > len(names) {
			if err := p.DeleteDocument(tok, id); err != nil {
				log.Fatalf("zerber-peer: removing vanished doc %d: %v", id, err)
			}
			removed++
		}
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
	fmt.Printf("%s: indexed %d documents (%d elements) to %d servers; serving snippets on %s\n",
		*name, len(names), elements, len(apis), *addr)

	log.Fatal(http.ListenAndServe(*addr, peer.NewHTTPHandler(p, svc, groupTable)))
}

func readDir(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatalf("zerber-peer: %v", err)
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
		log.Fatalf("zerber-peer: no .txt/.md documents under %s", dir)
	}
	return names
}

func readJSON(path string, v any) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("zerber-peer: %v (run zerber-index -build-table first?)", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		log.Fatalf("zerber-peer: decoding %s: %v", path, err)
	}
}
