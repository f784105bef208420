package client_test

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/ranking"
	"zerber/internal/server"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// planBench is a 3-server, k=2 cluster behind transport.ServeBinary on
// loopback, the wire the repository benchmark runs on. Calling the
// servers in process would not do: a call there is free, and what a call
// costs is exactly what the plan trades elements against.
type planBench struct {
	c   *client.Client
	tok auth.Token
}

// planTerms are three terms the M=3 table keeps in three lists.
var planTerms = []string{"alpha", "beta", "gamma"}

// newPlanBench gives planTerms lists of the given lengths, in the
// repository benchmark's shape: term frequencies follow its power law,
// P(tf >= x) = 1/x, a shorter list's documents are a subset of a longer
// one's, and the searcher belongs to the group of every other document,
// so the server-side filter drops half of every list.
func newPlanBench(tb testing.TB, lens [3]int) planBench {
	tb.Helper()
	svc, err := auth.NewService(time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	groups := auth.NewGroupTable()
	groups.Add("writer", 1)
	groups.Add("writer", 2)
	groups.Add("reader", 1)
	dfs := map[string]int{}
	for ti, term := range planTerms {
		dfs[term] = lens[ti]
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		tb.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: len(planTerms)})
	if err != nil {
		tb.Fatal(err)
	}
	if len(table.ListsOf(planTerms)) != len(planTerms) {
		tb.Fatal("the plan benchmark's terms share a list")
	}
	voc := vocab.NewFromTerms(planTerms)
	var apis []transport.API
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		srv := transport.ServeBinary(ln, server.New(server.Config{
			Name: fmt.Sprintf("ix%d", i), X: field.Element(i + 1), Auth: svc, Groups: groups,
		}))
		conn, err := transport.DialBinary(ln.Addr().String(), 10*time.Second)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { conn.Close(); srv.Close() })
		apis = append(apis, conn)
	}
	p, err := peer.New(peer.Config{Name: "site", Servers: apis, K: 2, Table: table, Vocab: voc, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(lens[0])))
	writer := svc.Issue("writer")
	batch := p.NewBatch()
	for id := 1; id <= max(lens[0], lens[1], lens[2]); id++ {
		var content strings.Builder
		for ti, term := range planTerms {
			if id <= lens[ti] {
				content.WriteString(strings.Repeat(term+" ", min(1023, int(1/(1-rng.Float64())))))
			}
		}
		doc := peer.Document{ID: uint32(id), Content: content.String(), Group: auth.GroupID(1 + id%2)}
		if err := batch.Add(doc); err != nil {
			tb.Fatal(err)
		}
	}
	if err := batch.Flush(writer); err != nil {
		tb.Fatal(err)
	}
	c, err := client.New(apis, 2, table, voc)
	if err != nil {
		tb.Fatal(err)
	}
	return planBench{c: c, tok: svc.Issue("reader")}
}

// BenchmarkTopKPlan is the measurement behind the planner's rule (one
// term streams, several take whole lists): both plans on the same top-10
// query of 1 to 3 terms, the first term's list of the length named and
// the others' of 500. Recorded on the 2-core sandbox, µs per search
// streamed / whole-list, with the streamed plan's rounds:
//
//	length    1 term           2 terms            3 terms
//	   500   120 / 149  (1)   334 / 156  (2)    427 / 204  (2)
//	 2,000   123 / 290  (1)   698 / 368  (3)    813 / 413  (3)
//	 8,000   102 / 808  (1)   359 / 865  (2)   1156 / 922  (4)
//	32,000    96 / 2294 (1)   360 / 2378 (2)   3127 / 2607 (9)
//
// A round costs 100 to 150 µs, what some 600 elements cost fetched whole.
// One term streamed wins at every length. Several terms streamed lose
// wherever the stream reads to the end, which the exactness rule makes it
// do on every list but the longest; they win only the tail of one long
// list, and only where the stream converges before it, as these nested
// synthetic lists let the 2-term rows of 8,000 and 32,000 do in 2 rounds.
// On the repository benchmark's independent Zipfian terms a several-term
// stream rarely converged: planned by list length with a break-even of
// 4,096 it cost top-k 5% of its throughput, and no workload there has one
// list long beside short ones. So the planner counts terms, and streaming
// a several-term query waits for a workload that shows it winning.
//
// The table above is the record of every cell. The streamed loop reads
// one list, so only a one-term query can stream, and the benchmark runs
// the four one-term cells at 8,000 and 32,000.
func BenchmarkTopKPlan(b *testing.B) {
	for _, listLen := range []int{8000, 32000} {
		pb := newPlanBench(b, [3]int{listLen, 500, 500})
		term := planTerms[0]
		for _, plan := range []struct {
			name   string
			search func() ([]ranking.ScoredDoc, client.Stats, error)
		}{
			{"streamed", func() ([]ranking.ScoredDoc, client.Stats, error) {
				return pb.c.SearchTopKStreamed(pb.tok, term, 10)
			}},
			{"whole", func() ([]ranking.ScoredDoc, client.Stats, error) {
				return pb.c.SearchTopKWhole(pb.tok, []string{term}, 10)
			}},
		} {
			b.Run(fmt.Sprintf("len=%d/terms=1/%s", listLen, plan.name), func(b *testing.B) {
				b.ReportAllocs()
				var stats client.Stats
				for i := 0; i < b.N; i++ {
					res, st, err := plan.search()
					if err != nil || len(res) != 10 {
						b.Fatalf("%d results, %v", len(res), err)
					}
					stats = st
				}
				b.ReportMetric(float64(stats.TA.Depth), "rounds")
				b.ReportMetric(float64(stats.ElementsFetched), "elements")
			})
		}
	}
}

// plansEnv is a randomized corpus over merged lists and both user
// groups: 120 documents of up to 5 occurrences of each of the 8 test
// terms, so that with the tiny block size the tests set a list runs from
// one window to several dozen.
func plansEnv(t *testing.T, m int, seed int64) (*env, map[string]auth.Token) {
	t.Helper()
	e := newEnv(t, m)
	toks := map[string]auth.Token{"alice": e.svc.Issue("alice"), "bob": e.svc.Issue("bob")}
	rng := rand.New(rand.NewSource(seed))
	var aliceDocs, bobDocs []peer.Document
	for id := uint32(1); id <= 120; id++ {
		var words []string
		for ti, term := range terms {
			if rng.Intn(1+ti) > 1 {
				continue // later terms are rarer: lists of very different lengths
			}
			for n := rng.Intn(6); n > 0; n-- {
				words = append(words, term)
			}
		}
		if len(words) == 0 {
			words = []string{terms[0]}
		}
		if rng.Intn(2) == 0 {
			aliceDocs = append(aliceDocs, peer.Document{ID: id, Content: strings.Join(words, " "), Group: 1})
		} else {
			bobDocs = append(bobDocs, peer.Document{ID: id, Content: strings.Join(words, " "), Group: 2})
		}
	}
	e.index(t, toks["alice"], aliceDocs...)
	e.index(t, toks["bob"], bobDocs...)
	return e, toks
}

// TestTopKPlansAgree runs every generated query, 1 to 5 terms, k from 1
// past the match count, through the whole-list path directly, whatever
// the planner would pick, its first term alone through the streamed loop,
// and the query through SearchTopK: identical documents, scores and tie
// order everywhere, equal to the exhaustive frequency-sum ranking.
func TestTopKPlansAgree(t *testing.T) {
	for _, m := range []int{1, 3, 8} {
		e, toks := plansEnv(t, m, int64(m))
		rng := rand.New(rand.NewSource(int64(100 + m)))
		c := e.client(t)
		c.SetTuning(client.Tuning{BlockSize: 1 + rng.Intn(6)})
		for trial := 0; trial < 60; trial++ {
			query := make([]string, 1+rng.Intn(5))
			for i := range query {
				query[i] = terms[rng.Intn(len(terms))]
			}
			who := []string{"alice", "bob"}[rng.Intn(2)]
			tok := toks[who]
			for _, k := range []int{1, 2, 10, 1000} {
				want := bruteTopK(t, c, tok, query, k)
				whole, wStats, err := c.SearchTopKWhole(tok, query, k)
				if err != nil {
					t.Fatal(err)
				}
				wantOne := bruteTopK(t, c, tok, query[:1], k)
				streamed, sStats, err := c.SearchTopKStreamed(tok, query[0], k)
				if err != nil {
					t.Fatal(err)
				}
				if !sameScored(whole, want) || !sameScored(streamed, wantOne) {
					t.Fatalf("M=%d %s %v k=%d:\nwhole    %v\nwant     %v\nstreamed %v (%s alone)\nwant     %v", m, who, query, k, whole, want, streamed, query[0], wantOne)
				}
				if len(want) > 0 && (wStats.TA.Depth != 1 || wStats.TA.BlocksFetched != wStats.ListsRequested*wStats.ServersQueried ||
					wStats.TA.TotalPostings != wStats.ElementsFetched || wStats.TA.ElementsDecrypted != wStats.ElementsFetched ||
					wStats.TA.SortedAccesses == 0 || wStats.TA.WireBytes == 0) || (len(wantOne) > 0 && sStats.TA.Depth == 0) {
					t.Fatalf("M=%d %s %v k=%d: TA stats streamed %+v, whole %+v", m, who, query, k, sStats.TA, wStats.TA)
				}
				// The planner streams one distinct term and takes whole
				// lists for more.
				got, stats, err := c.SearchTopK(tok, query, k)
				if err != nil {
					t.Fatal(err)
				}
				if distinct := len(slices.Compact(slices.Sorted(slices.Values(query)))); !sameScored(got, want) || stats.TA.Streamed != (distinct == 1) {
					t.Fatalf("M=%d %s %v k=%d: SearchTopK = %v (streamed %v), want %v", m, who, query, k, got, stats.TA.Streamed, want)
				}
			}
		}
	}
}

// TestTopKIgnoresDuplicatePosting pins the one rule for a malformed
// list that holds a (term, document) posting twice, here because two
// sites indexed the same document ID: both plans count the first copy
// they meet, the higher-impact one, and ignore the other.
func TestTopKIgnoresDuplicatePosting(t *testing.T) {
	e := newEnv(t, 2)
	alice := e.svc.Issue("alice")
	e.index(t, alice,
		peer.Document{ID: 7, Content: strings.Repeat("martha ", 9), Group: 1},
		peer.Document{ID: 8, Content: strings.Repeat("martha ", 5), Group: 1},
	)
	other, err := peer.New(peer.Config{Name: "site2", Servers: e.apis, K: 2, Table: e.table, Vocab: e.voc, Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.IndexDocument(alice, peer.Document{ID: 7, Content: "martha", Group: 1}); err != nil {
		t.Fatal(err)
	}
	c := e.client(t)
	c.SetTuning(client.Tuning{BlockSize: 1})
	want := []ranking.ScoredDoc{{DocID: 7, Score: 9}, {DocID: 8, Score: 5}}
	for name, search := range map[string]func() ([]ranking.ScoredDoc, client.Stats, error){
		"streamed": func() ([]ranking.ScoredDoc, client.Stats, error) {
			return c.SearchTopKStreamed(alice, "martha", 5)
		},
		"whole-list": func() ([]ranking.ScoredDoc, client.Stats, error) {
			return c.SearchTopKWhole(alice, []string{"martha"}, 5)
		},
	} {
		got, stats, err := search()
		if err != nil {
			t.Fatal(err)
		}
		if !sameScored(got, want) {
			t.Errorf("%s plan = %v, want %v (the duplicate tf=1 posting of document 7 ignored)", name, got, want)
		}
		if stats.ElementsFetched-stats.FalsePositives != 3 {
			t.Errorf("%s plan decrypted %d postings of the term, want all 3", name, stats.ElementsFetched-stats.FalsePositives)
		}
	}
}

// TestConcurrentTopK hammers one client with queries of both plans from
// several goroutines: the race detector's view of what searches share,
// and a check that no interleaving changes an answer.
func TestConcurrentTopK(t *testing.T) {
	e, toks := plansEnv(t, 3, 9)
	c := e.client(t)
	c.SetTuning(client.Tuning{BlockSize: 4})
	queries := [][]string{{"martha"}, {"martha", "imclone"}, {"layoff", "merger", "budget"}, {"process", "martha"}}
	wants := make([][]ranking.ScoredDoc, len(queries))
	for i, q := range queries {
		wants[i] = bruteTopK(t, c, toks["alice"], q, 5)
	}
	done := make(chan error)
	const workers = 6
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < 50; i++ {
				q := (w + i) % len(queries)
				got, _, err := c.SearchTopK(toks["alice"], queries[q], 5)
				if err == nil && !sameScored(got, wants[q]) {
					err = fmt.Errorf("SearchTopK(%v) = %v, want %v", queries[q], got, wants[q])
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestPooledMemoryNeverAliases runs searches of every kind and of very
// different sizes from many goroutines on one client: exact, whole-list
// and streamed top-k, and Retrieve. Each query's join, decrypt and
// posting memory comes from the client's pool, and the ranker's from its
// own. Every answer must equal the one the same query got alone, and
// must still equal it after the worker's next query, which a result
// pointing into pooled memory would not survive.
//
// The share buffers are pooled too, from the store's scan to the
// client's join, and they must never mix: the workers search as two
// users of disjoint groups, half of them through a second client that
// reaches the same servers over the binary wire, where each response
// is scanned, framed, released, decoded into pooled slices and joined
// while the other workers' responses take the same path. A slice
// released while another owner still read it would put one user's
// shares, or under the race detector poison, into another's answer.
//
// No mutation runs, so every whole list is aligned on both clients: the
// exact searches, the Retrieve calls and the top-k queries of several
// terms decrypt straight from the pooled responses, with no join in
// between, and each client must count such lists and no other. Only the
// one-term top-k queries, which stream, go through the join.
func TestPooledMemoryNeverAliases(t *testing.T) {
	e, toks := plansEnv(t, 3, 11)
	c := e.client(t)
	wire := e.wireClient(t)
	var paired, joined [2]atomic.Int64
	for i, cl := range []*client.Client{c, wire} {
		cl.SetTuning(client.Tuning{BlockSize: 3})
		cl.RouteLists(func(_ merging.ListID, aligned bool) bool {
			if aligned {
				paired[i].Add(1)
			} else {
				joined[i].Add(1)
			}
			return true
		})
	}

	users := []string{"alice", "bob"}
	type query struct {
		kind  string
		terms []string
		user  string
	}
	var queries []query
	for _, q := range [][]string{{"martha"}, {"process"}, {"chemical"}, {"martha", "imclone"}, {"layoff", "merger", "budget"}, terms} {
		for _, kind := range []string{"exact", "topk", "retrieve"} {
			for _, user := range users {
				queries = append(queries, query{kind, q, user})
			}
		}
	}
	run := func(c *client.Client, q query) (got any, err error) {
		tok := toks[q.user]
		switch q.kind {
		case "exact":
			got, _, err = c.Search(tok, q.terms, 10)
		case "topk": // one term streams, more take whole lists
			got, _, err = c.SearchTopK(tok, q.terms, 10)
		case "retrieve":
			got, _, err = c.Retrieve(tok, q.terms)
		}
		return got, err
	}
	wants := make([]string, len(queries))
	for i, q := range queries {
		got, err := run(c, q)
		if err != nil {
			t.Fatal(err)
		}
		if wants[i] = fmt.Sprint(got); wants[i] == "[]" || wants[i] == "map[]" {
			t.Fatalf("%s %s %v: empty answer", q.user, q.kind, q.terms)
		}
	}

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		cl := []*client.Client{c, wire}[w%2]
		go func() {
			var held any // the previous answer and its query
			heldQ := -1
			for i := 0; i < 40; i++ {
				qi := (w*7 + i*5) % len(queries)
				got, err := run(cl, queries[qi])
				if err == nil && heldQ >= 0 && fmt.Sprint(held) != wants[heldQ] {
					q := queries[heldQ]
					err = fmt.Errorf("%s %s %v changed after the next query: %v, alone %s", q.user, q.kind, q.terms, held, wants[heldQ])
				}
				if err == nil && fmt.Sprint(got) != wants[qi] {
					q := queries[qi]
					err = fmt.Errorf("%s %s %v under load = %v, alone %s", q.user, q.kind, q.terms, got, wants[qi])
				}
				if err != nil {
					errs <- err
					return
				}
				held, heldQ = got, qi
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for i, name := range []string{"in-process", "wire"} {
		if paired[i].Load() == 0 || joined[i].Load() != 0 {
			t.Errorf("%s client: %d lists paired by position and %d joined, want some and none",
				name, paired[i].Load(), joined[i].Load())
		}
	}
}
