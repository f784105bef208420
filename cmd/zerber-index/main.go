// Command zerber-index is the document owner's tool: it indexes a
// directory of text documents into a running Zerber cluster, optionally
// building the public mapping table and vocabulary first.
//
// Typical flow (after starting n zerber-server processes):
//
//	# one-time: learn corpus statistics and publish the mapping table
//	zerber-index -build-table -m 64 -r 16 -docs ./shared -table table.json -vocab vocab.json
//
//	# index the documents as group 1
//	zerber-index -servers h1:8291,h2:8291,h3:8291 \
//	             -k 2 -key <hex> -user alice -group 1 \
//	             -table table.json -vocab vocab.json -docs ./shared
//
// -servers lists the index servers as host:port (or binary://host:port):
// they speak only the binary framed protocol.
//
// Documents are flushed in one shuffled batch (paper §5.4.1) so an
// adversary watching updates cannot correlate elements by document.
// A docmap.json mapping document IDs to file names is written next to
// the table for zerber-search to label results.
//
// zerber-index keeps no journal, so a run cannot be repeated: a second
// run over the same directory indexes every document again under fresh
// global IDs, and the first run's elements stay on the servers, where no
// peer can delete them (a delete names the global IDs, which only the
// first run knew). zerber-peer -journal is the path that can be re-run:
// its journal restores the documents it indexed, and a rerun sends only
// what changed.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
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
		servers    = flag.String("servers", "", "comma-separated index server addresses (host:port or binary://host:port; index servers speak only the binary protocol)")
		k          = flag.Int("k", 2, "secret-sharing threshold")
		keyHex     = flag.String("key", "", "enterprise auth key (hex)")
		user       = flag.String("user", "", "authenticated user")
		group      = flag.Uint("group", 1, "group to share the documents with")
		tablePath  = flag.String("table", "table.json", "mapping table file")
		vocabPath  = flag.String("vocab", "vocab.json", "vocabulary file")
		docsDir    = flag.String("docs", ".", "directory of documents to index (*.txt, *.md)")
		buildTable = flag.Bool("build-table", false, "build table+vocab from the corpus statistics and exit")
		m          = flag.Int("m", 64, "number of merged posting lists (build-table)")
		r          = flag.Float64("r", 16, "target confidentiality parameter r (build-table)")
		heuristic  = flag.String("heuristic", "DFM", "merging heuristic: DFM, BFM, UDM (build-table)")
	)
	flag.Parse()

	files, contents := readDocs(*docsDir)
	if len(files) == 0 {
		log.Fatalf("zerber-index: no .txt/.md documents under %s", *docsDir)
	}

	if *buildTable {
		buildAndWrite(contents, *tablePath, *vocabPath, *m, *r, merging.Heuristic(*heuristic))
		return
	}

	if *servers == "" || *keyHex == "" || *user == "" {
		log.Fatal("zerber-index: -servers, -key and -user are required for indexing")
	}
	key, err := hex.DecodeString(*keyHex)
	if err != nil {
		log.Fatalf("zerber-index: bad -key: %v", err)
	}
	table, voc := loadTableVocab(*tablePath, *vocabPath)

	var apis []transport.API
	for _, u := range strings.Split(*servers, ",") {
		c, err := transport.DialBinary(strings.TrimSpace(u), 10*time.Second)
		if err != nil {
			log.Fatalf("zerber-index: %v", err)
		}
		apis = append(apis, c)
	}

	p, err := peer.New(peer.Config{
		Name: "zerber-index", Servers: apis, K: *k, Table: table, Vocab: voc,
	})
	if err != nil {
		log.Fatal(err)
	}
	svc := auth.NewServiceWithKey(key, time.Hour)
	tok := svc.Issue(auth.UserID(*user))

	batch := p.NewBatch()
	docmap := make(map[uint32]string, len(files))
	for i, name := range files {
		id := uint32(i + 1)
		docmap[id] = name
		if err := batch.Add(peer.Document{
			ID: id, Name: name, Content: contents[i], Group: auth.GroupID(*group),
		}); err != nil {
			log.Fatalf("zerber-index: %s: %v", name, err)
		}
	}
	elements := batch.Elements()
	if err := batch.Flush(tok); err != nil {
		log.Fatalf("zerber-index: flush: %v", err)
	}
	writeJSON(filepath.Join(filepath.Dir(*tablePath), "docmap.json"), docmap)
	fmt.Printf("indexed %d documents (%d posting elements) to %d servers as group %d\n",
		len(files), elements, len(apis), *group)
}

func readDocs(dir string) (names []string, contents []string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatalf("zerber-index: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := strings.ToLower(filepath.Ext(e.Name()))
		if ext != ".txt" && ext != ".md" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			log.Fatalf("zerber-index: %v", err)
		}
		names = append(names, e.Name())
		contents = append(contents, string(data))
	}
	sort.Sort(byName{names, contents})
	return names, contents
}

type byName struct {
	names    []string
	contents []string
}

func (b byName) Len() int           { return len(b.names) }
func (b byName) Less(i, j int) bool { return b.names[i] < b.names[j] }
func (b byName) Swap(i, j int) {
	b.names[i], b.names[j] = b.names[j], b.names[i]
	b.contents[i], b.contents[j] = b.contents[j], b.contents[i]
}

func buildAndWrite(contents []string, tablePath, vocabPath string, m int, r float64, h merging.Heuristic) {
	dfs := make(map[string]int)
	for _, c := range contents {
		for term := range textproc.TermCounts(c) {
			dfs[term]++
		}
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		log.Fatalf("zerber-index: %v", err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: h, M: m, R: r})
	if err != nil {
		log.Fatalf("zerber-index: building table: %v", err)
	}
	voc := vocab.NewFromTerms(table.ListedTerms())
	writeJSON(tablePath, table)
	writeJSON(vocabPath, voc)
	fmt.Printf("built %s table: M=%d, resulting r=%.4g (1/r=%.4g), %d listed terms\n",
		h, table.M(), table.RValue(), table.MinMass(), table.NumListed())
}

func loadTableVocab(tablePath, vocabPath string) (*merging.Table, *vocab.Vocabulary) {
	var table merging.Table
	readJSON(tablePath, &table)
	voc := vocab.New()
	readJSON(vocabPath, voc)
	return &table, voc
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatalf("zerber-index: encoding %s: %v", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("zerber-index: %v", err)
	}
}

func readJSON(path string, v any) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("zerber-index: %v (run with -build-table first?)", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		log.Fatalf("zerber-index: decoding %s: %v", path, err)
	}
}
