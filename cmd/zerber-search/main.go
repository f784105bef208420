// Command zerber-search runs ranked keyword queries against a Zerber
// cluster from the command line (the querying-user side of Algorithm 2).
//
// Usage:
//
//	zerber-search -servers h1:8291,h2:8291,h3:8291 \
//	              -k 2 -key <hex> -user alice \
//	              -table table.json -vocab vocab.json \
//	              martha imclone
//
// -servers lists the index servers as host:port (or binary://host:port):
// they speak only the binary framed protocol.
//
// The client fans the request to k servers, joins and decrypts the
// shares, filters false positives from merged lists, ranks with TF-IDF
// over the user's personalized statistics, and prints the top results.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/ranking"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

func main() {
	var (
		servers   = flag.String("servers", "", "comma-separated index server addresses (host:port or binary://host:port; index servers speak only the binary protocol)")
		k         = flag.Int("k", 2, "secret-sharing threshold")
		keyHex    = flag.String("key", "", "enterprise auth key (hex)")
		user      = flag.String("user", "", "authenticated user")
		tablePath = flag.String("table", "table.json", "mapping table file")
		vocabPath = flag.String("vocab", "vocab.json", "vocabulary file")
		topK      = flag.Int("top", 10, "number of results")
		topkMode  = flag.Bool("topk", false, "early-terminating top-k retrieval (score-ordered blocks, frequency-sum ranking)")
		peers     = flag.String("peers", "", "comma-separated peer snippet-service URLs (optional)")
		verbose   = flag.Bool("v", false, "print retrieval statistics")
	)
	flag.Parse()
	query := flag.Args()
	if len(query) == 0 {
		log.Fatal("zerber-search: no query terms (pass them as arguments)")
	}
	if *servers == "" || *keyHex == "" || *user == "" {
		log.Fatal("zerber-search: -servers, -key and -user are required")
	}
	key, err := hex.DecodeString(*keyHex)
	if err != nil {
		log.Fatalf("zerber-search: bad -key: %v", err)
	}

	var table merging.Table
	readJSON(*tablePath, &table)
	voc := vocab.New()
	readJSON(*vocabPath, voc)

	var apis []transport.API
	for _, u := range strings.Split(*servers, ",") {
		c, err := transport.DialBinary(strings.TrimSpace(u), 10*time.Second)
		if err != nil {
			log.Fatalf("zerber-search: %v", err)
		}
		apis = append(apis, c)
	}
	cl, err := client.New(apis, *k, &table, voc)
	if err != nil {
		log.Fatal(err)
	}

	svc := auth.NewServiceWithKey(key, time.Hour)
	tok := svc.Issue(auth.UserID(*user))

	start := time.Now()
	var (
		results []ranking.ScoredDoc
		stats   client.Stats
	)
	if *topkMode {
		results, stats, err = cl.SearchTopK(tok, lower(query), *topK)
	} else {
		results, stats, err = cl.Search(tok, lower(query), *topK)
	}
	if err != nil {
		log.Fatalf("zerber-search: %v", err)
	}
	elapsed := time.Since(start)

	docmap := map[uint32]string{}
	if data, err := os.ReadFile(filepath.Join(filepath.Dir(*tablePath), "docmap.json")); err == nil {
		_ = json.Unmarshal(data, &docmap) // labels are cosmetic; ignore errors
	}

	// Optional Algorithm 2 final step: fetch snippets from the hosting
	// peers for the top-K results.
	var snippetClients []*peer.SnippetClient
	for _, u := range splitNonEmpty(*peers) {
		snippetClients = append(snippetClients, peer.DialSnippets(u, 10*time.Second))
	}
	if len(results) == 0 {
		fmt.Println("no accessible documents match")
	}
	for i, r := range results {
		name := docmap[r.DocID]
		if name == "" {
			name = fmt.Sprintf("doc %d", r.DocID)
		}
		fmt.Printf("%2d. %-40s score %.4f\n", i+1, name, r.Score)
		for _, sc := range snippetClients {
			resp, err := sc.Snippet(tok, r.DocID, lower(query), 0)
			if err != nil {
				continue // wrong peer or inaccessible; try the next
			}
			fmt.Printf("    %s\n", resp.Snippet)
			break
		}
	}
	if *verbose {
		fmt.Printf("\n%d lists requested, %d elements decrypted, %d false positives filtered, %d servers, %v\n",
			stats.ListsRequested, stats.ElementsFetched, stats.FalsePositives,
			stats.ServersQueried, elapsed.Round(time.Millisecond))
		if *topkMode {
			plan := map[bool]string{true: "streamed", false: "whole lists"}[stats.TA.Streamed]
			fmt.Printf("top-k (%s): %d/%d postings touched, %d block fetches, %d bytes on wire, depth %d\n",
				plan, stats.TA.ElementsDecrypted, stats.TA.TotalPostings,
				stats.TA.BlocksFetched, stats.TA.WireBytes, stats.TA.Depth)
		}
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func lower(terms []string) []string {
	out := make([]string, len(terms))
	for i, t := range terms {
		out[i] = strings.ToLower(t)
	}
	return out
}

func readJSON(path string, v any) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("zerber-search: %v (run zerber-index -build-table first?)", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		log.Fatalf("zerber-search: decoding %s: %v", path, err)
	}
}
