package peer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"zerber/internal/auth"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/server"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// discardAPI is an index server that accepts and drops every operation,
// so the document-owner pipeline (staging, share generation, op
// assembly, shuffle) is measured without unbounded server-side growth.
type discardAPI struct{ x field.Element }

func (d discardAPI) XCoord() field.Element { return d.x }
func (discardAPI) Insert(context.Context, auth.Token, []transport.InsertOp) error {
	return nil
}
func (discardAPI) Delete(context.Context, auth.Token, []transport.DeleteOp) error {
	return nil
}
func (discardAPI) Apply(context.Context, auth.Token, transport.OpID, []transport.InsertOp, []transport.DeleteOp) error {
	return nil
}
func (discardAPI) GetPostingLists(context.Context, auth.Token, []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	return nil, nil
}

func (discardAPI) GetPostingBlocks(context.Context, auth.Token, merging.ListID, int, int) (transport.BlockPage, error) {
	return transport.BlockPage{}, nil
}

// bench5kPeer builds a peer over a 5,000-term vocabulary wired to n
// discarding servers, plus the document containing every term once.
func bench5kPeer(b *testing.B, n, k int) (*Peer, Document) {
	b.Helper()
	const terms = 5000
	dfs := make(map[string]int, terms)
	names := make([]string, terms)
	for i := 0; i < terms; i++ {
		names[i] = fmt.Sprintf("term%04d", i)
		dfs[names[i]] = terms - i
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		b.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: 64})
	if err != nil {
		b.Fatal(err)
	}
	apis := make([]transport.API, n)
	for i := range apis {
		apis[i] = discardAPI{x: field.Element(i + 1)}
	}
	p, err := New(Config{
		Name:    "bench",
		Servers: apis,
		K:       k,
		Table:   table,
		Vocab:   vocab.NewFromTerms(names),
	})
	if err != nil {
		b.Fatal(err)
	}
	doc := Document{ID: 1, Name: "big", Content: strings.Join(names, " "), Group: 1}
	return p, doc
}

// benchToken builds a syntactically valid token; discardAPI never
// verifies it.
func benchToken(b *testing.B) auth.Token {
	b.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	return svc.Issue("bench")
}

// BenchmarkIndexDocument5k: one op = indexing a fresh 5,000-term
// document end-to-end through the owner pipeline (paper §5.1's
// document-splitting unit, n=3, k=2 evaluation setup).
func BenchmarkIndexDocument5k(b *testing.B) {
	p, doc := bench5kPeer(b, 3, 2)
	tok := benchToken(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc.ID = uint32(i%posting.MaxDocID + 1)
		if err := p.IndexDocument(tok, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMutationPeer builds a crypto-randomness peer over a termCount
// vocabulary wired to discarding servers, optionally journaled.
func benchMutationPeer(b *testing.B, termCount int, journalPath string) (*Peer, []string) {
	b.Helper()
	dfs := make(map[string]int, termCount)
	names := make([]string, termCount)
	for i := 0; i < termCount; i++ {
		names[i] = fmt.Sprintf("term%04d", i)
		dfs[names[i]] = termCount - i
	}
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		b.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: 64})
	if err != nil {
		b.Fatal(err)
	}
	apis := make([]transport.API, 3)
	for i := range apis {
		apis[i] = discardAPI{x: field.Element(i + 1)}
	}
	p, err := New(Config{
		Name: "bench", Servers: apis, K: 2,
		Table: table, Vocab: vocab.NewFromTerms(names),
		JournalPath: journalPath,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p, names
}

// BenchmarkUpdateDocument: one op = a diff update of a 1,000-term
// document that changes 100 terms — 100 journal-free two-stage deletes
// plus 100 fresh elements per update, the peer's steady-state mutation.
func BenchmarkUpdateDocument(b *testing.B) {
	p, names := benchMutationPeer(b, 1100, "")
	tok := benchToken(b)
	contentA := strings.Join(names[:1000], " ")
	contentB := strings.Join(append(append([]string{}, names[:900]...), names[1000:1100]...), " ")
	doc := Document{ID: 1, Name: "doc", Content: contentA, Group: 1}
	if err := p.IndexDocument(tok, doc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			doc.Content = contentB
		} else {
			doc.Content = contentA
		}
		if err := p.UpdateDocument(tok, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateDocumentPopulated: one op = an update that replaces 3
// of a document's ~50 terms, on a peer that hosts 4,000 such documents
// over a 5,000-term Zipfian vocabulary (the repository benchmark's
// write-journal shape, one peer's share). Where BenchmarkUpdateDocument
// rewrites a tenth of one 1,000-term document on an otherwise empty peer,
// this is the common update: a few terms of a typical document, with the
// peer's per-document state (documents and refs) thousands of entries
// deep.
func BenchmarkUpdateDocumentPopulated(b *testing.B) {
	const docs, perDoc, vocabSize = 4000, 50, 5000
	p, names := benchMutationPeer(b, vocabSize, "")
	tok := benchToken(b)
	rng := rand.New(rand.NewSource(1))
	cdf := make([]float64, vocabSize) // Zipfian: weight 1/rank
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	draw := func() int { return sort.SearchFloat64s(cdf, rng.Float64()*sum) }
	// A document is its distinct terms, each repeated tf times (a power
	// law, P(tf >= x) = 1/x), about 350 tokens in all.
	terms := make([][]int, docs)
	render := func(ts []int) string {
		var sb strings.Builder
		for _, t := range ts {
			for tf := min(int(1/(1-rng.Float64())), 200); tf > 0; tf-- {
				sb.WriteString(names[t])
				sb.WriteByte(' ')
			}
		}
		return sb.String()
	}
	batch := p.NewBatch()
	for d := range terms {
		seen := make(map[int]bool, perDoc)
		for len(terms[d]) < perDoc {
			if t := draw(); !seen[t] {
				seen[t] = true
				terms[d] = append(terms[d], t)
			}
		}
		if err := batch.Add(Document{ID: uint32(d + 1), Content: render(terms[d]), Group: 1}); err != nil {
			b.Fatal(err)
		}
	}
	if err := batch.Flush(tok); err != nil {
		b.Fatal(err)
	}
	// The updates are rendered before the clock starts: one op is the
	// peer's work, not the generator's.
	updates := make([]Document, 2048)
	for i := range updates {
		d := rng.Intn(docs)
		for n := 0; n < 3; n++ {
			terms[d][rng.Intn(perDoc)] = draw() // may repeat a term the document has: fewer than 3 change
		}
		updates[i] = Document{ID: uint32(d + 1), Content: render(terms[d]), Group: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.UpdateDocument(tok, updates[i%len(updates)]); err != nil {
			b.Fatal(err)
		}
	}
}

// flushBatch stages and flushes one 10-document, 1,000-element batch.
func flushBatch(b *testing.B, p *Peer, tok auth.Token, names []string, iter int) {
	b.Helper()
	batch := p.NewBatch()
	for d := 0; d < 10; d++ {
		id := uint32((iter*10+d)%posting.MaxDocID + 1)
		content := strings.Join(names[d*100:(d+1)*100], " ")
		if err := batch.Add(Document{ID: id, Content: content, Group: 1}); err != nil {
			b.Fatal(err)
		}
	}
	if err := batch.Flush(tok); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJournaledFlush: one op = flushing a 10-document batch with
// the mutation journal on — the crash-safe path, two fsyncs per flush.
func BenchmarkJournaledFlush(b *testing.B) {
	p, names := benchMutationPeer(b, 1000, filepath.Join(b.TempDir(), "bench.journal"))
	defer p.Close()
	tok := benchToken(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flushBatch(b, p, tok, names, i)
	}
}

// BenchmarkUnjournaledFlush is the journal-off baseline for
// BenchmarkJournaledFlush: the same batch through the same engine with
// no persistence, isolating the journal's overhead.
func BenchmarkUnjournaledFlush(b *testing.B) {
	p, names := benchMutationPeer(b, 1000, "")
	tok := benchToken(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flushBatch(b, p, tok, names, i)
	}
}

// TestEncryptWorkersParallelPipeline drives crypto-mode share generation
// (pooled DRBG sources, the path deterministic tests cannot reach) over
// more than one encryptChunk and verifies every produced share set
// still reconstructs its element: index one many-term document against
// recording servers, then decrypt everything with k shares.
func TestEncryptWorkersParallelPipeline(t *testing.T) {
	const n, k, terms = 3, 2, 1500 // > encryptChunk so several tasks exist
	names := make([]string, terms)
	dfs := make(map[string]int, terms)
	for i := range names {
		names[i] = fmt.Sprintf("w%04d", i)
		dfs[names[i]] = terms - i
	}
	tc := newClusterTerms(t, n, names, dfs)
	tc.groups.Add("alice", 1)
	tok := tc.svc.Issue("alice")
	p, err := New(Config{
		Name:    "par",
		Servers: tc.apis,
		K:       k,
		Table:   tc.table,
		Vocab:   tc.voc, // crypto mode: Rand nil
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := Document{ID: 9, Content: strings.Join(names, " "), Group: 1}
	if err := p.IndexDocument(tok, doc); err != nil {
		t.Fatal(err)
	}
	for i, s := range tc.servers {
		if got := s.Store().TotalElements(); got != terms {
			t.Fatalf("server %d holds %d elements, want %d", i, got, terms)
		}
	}
	// Join shares across servers 0 and 1 by global ID and decrypt all.
	xs := []field.Element{tc.servers[0].XCoord(), tc.servers[1].XCoord()}
	decrypted := 0
	for _, lid := range tc.table.ListsOf(names) {
		byID := make(map[posting.GlobalID]posting.EncryptedShare)
		for _, sh := range tc.servers[0].Store().Scan(lid, nil) {
			byID[sh.GlobalID] = sh
		}
		for _, sh := range tc.servers[1].Store().Scan(lid, nil) {
			first, ok := byID[sh.GlobalID]
			if !ok {
				t.Fatalf("element %d missing on server 0", sh.GlobalID)
			}
			elem, err := posting.Decrypt([]posting.EncryptedShare{first, sh}, xs, k)
			if err != nil {
				t.Fatal(err)
			}
			if elem.DocID != 9 || elem.TF != 1 {
				t.Fatalf("decrypted %v, want doc 9 tf 1", elem)
			}
			decrypted++
		}
	}
	if decrypted != terms {
		t.Fatalf("decrypted %d elements, want %d", decrypted, terms)
	}
}

// TestChunkTasksRespectsGroupRuns pins the task cutter: chunks never
// span a group change and never exceed encryptChunk elements.
func TestChunkTasksRespectsGroupRuns(t *testing.T) {
	groups := make([]uint32, 0, 2*encryptChunk+30)
	for i := 0; i < encryptChunk+10; i++ {
		groups = append(groups, 1)
	}
	for i := 0; i < 5; i++ {
		groups = append(groups, 2)
	}
	for i := 0; i < encryptChunk+15; i++ {
		groups = append(groups, 1)
	}
	tasks := chunkTasks(groups)
	covered := 0
	for _, tk := range tasks {
		if tk.hi <= tk.lo {
			t.Fatalf("empty task %+v", tk)
		}
		if tk.hi-tk.lo > encryptChunk {
			t.Fatalf("task %+v exceeds chunk size", tk)
		}
		if tk.lo != covered {
			t.Fatalf("task %+v leaves a gap at %d", tk, covered)
		}
		for _, g := range groups[tk.lo:tk.hi] {
			if g != tk.group {
				t.Fatalf("task %+v spans group change", tk)
			}
		}
		covered = tk.hi
	}
	if covered != len(groups) {
		t.Fatalf("tasks cover %d of %d elements", covered, len(groups))
	}
	if len(chunkTasks(nil)) != 0 {
		t.Error("no elements must yield no tasks")
	}
}

// persistThenFailAPI simulates the worst retry hazard: the server
// persists the mutation but the owner sees an error (e.g. a timeout on
// the response). The first Apply call delegates and then fails.
type persistThenFailAPI struct {
	transport.API
	failed bool
}

func (f *persistThenFailAPI) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	if err := f.API.Apply(ctx, tok, op, inserts, deletes); err != nil {
		return err
	}
	if !f.failed {
		f.failed = true
		return errors.New("simulated timeout after persisting")
	}
	return nil
}

// TestBatchFlushRetryResendsIdenticalShares: a retried Flush must resend
// the same share values, not re-encrypt with fresh randomness —
// otherwise a server that persisted the failed attempt and a server
// reached only by the retry hold shares of different polynomials, and
// k-of-n reconstruction across them silently decodes garbage.
func TestBatchFlushRetryResendsIdenticalShares(t *testing.T) {
	terms := []string{"martha", "imclone", "layoff", "merger", "budget"}
	dfs := make(map[string]int, len(terms))
	for i, term := range terms {
		dfs[term] = len(terms) - i
	}
	tc := newClusterTerms(t, 3, terms, dfs)
	tc.groups.Add("alice", 1)
	tok := tc.svc.Issue("alice")
	flaky := &persistThenFailAPI{API: tc.apis[1]}
	apis := []transport.API{tc.apis[0], flaky, tc.apis[2]}
	p, err := New(Config{Name: "retry", Servers: apis, K: 2, Table: tc.table, Vocab: tc.voc})
	if err != nil {
		t.Fatal(err)
	}
	b := p.NewBatch()
	doc := Document{ID: 5, Content: strings.Join(terms, " "), Group: 1}
	if err := b.Add(doc); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(tok); err == nil {
		t.Fatal("first flush must surface the simulated failure")
	}
	// A document added between the failure and the retry must not be
	// dropped: its elements are encrypted as a fresh tranche appended to
	// the cached (byte-identical) ops of the failed attempt.
	if err := b.Add(Document{ID: 6, Content: "martha budget", Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(tok); err != nil {
		t.Fatalf("retried flush: %v", err)
	}
	if p.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d after retried flush, want 2", p.NumDocs())
	}
	// Every cross-server share pair must reconstruct the same elements:
	// server 1 persisted both attempts (replace-by-GlobalID), so any
	// divergence between attempts would surface here as garbage.
	wantPerDoc := map[uint32]int{5: len(terms), 6: 2}
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		a, c := tc.servers[pair[0]], tc.servers[pair[1]]
		xs := []field.Element{a.XCoord(), c.XCoord()}
		perDoc := make(map[uint32]int)
		for _, lid := range tc.table.ListsOf(terms) {
			byID := make(map[posting.GlobalID]posting.EncryptedShare)
			for _, sh := range a.Store().Scan(lid, nil) {
				byID[sh.GlobalID] = sh
			}
			for _, sh := range c.Store().Scan(lid, nil) {
				first, ok := byID[sh.GlobalID]
				if !ok {
					t.Fatalf("servers %v: element %d missing", pair, sh.GlobalID)
				}
				elem, err := posting.Decrypt([]posting.EncryptedShare{first, sh}, xs, 2)
				if err != nil {
					t.Fatal(err)
				}
				if wantPerDoc[elem.DocID] == 0 || elem.TF != 1 {
					t.Fatalf("servers %v: decrypted %v — retry sent different shares", pair, elem)
				}
				perDoc[elem.DocID]++
			}
		}
		for docID, want := range wantPerDoc {
			if perDoc[docID] != want {
				t.Fatalf("servers %v: doc %d has %d elements, want %d",
					pair, docID, perDoc[docID], want)
			}
		}
	}
}

// TestIndexEmptyDocument: a document producing no terms must still
// index cleanly (empty op lists sent, local state committed) — the
// pre-pipeline code supported this.
func TestIndexEmptyDocument(t *testing.T) {
	terms := []string{"martha", "budget"}
	dfs := map[string]int{"martha": 2, "budget": 1}
	tc := newClusterTerms(t, 3, terms, dfs)
	tc.groups.Add("alice", 1)
	tok := tc.svc.Issue("alice")
	p, err := New(Config{Name: "empty", Servers: tc.apis, K: 2, Table: tc.table, Vocab: tc.voc})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IndexDocument(tok, Document{ID: 3, Content: "", Group: 1}); err != nil {
		t.Fatalf("indexing an empty document: %v", err)
	}
	if p.NumDocs() != 1 {
		t.Fatalf("NumDocs = %d, want 1", p.NumDocs())
	}
	if got := tc.servers[0].Store().TotalElements(); got != 0 {
		t.Fatalf("server holds %d elements for an empty document", got)
	}
}

// newClusterTerms is newCluster with an explicit vocabulary and
// document-frequency table, for fixtures larger than corpusTerms.
func newClusterTerms(t *testing.T, n int, terms []string, dfs map[string]int) *testCluster {
	t.Helper()
	svc, err := auth.NewService(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	groups := auth.NewGroupTable()
	dist, err := confidential.NewDistribution(dfs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.UDM, M: 16})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		svc: svc, groups: groups, table: table,
		voc: vocab.NewFromTerms(terms),
	}
	for i := 0; i < n; i++ {
		s := server.New(server.Config{
			Name:   fmt.Sprintf("ix%d", i),
			X:      field.Element(i + 1),
			Auth:   svc,
			Groups: groups,
		})
		tc.servers = append(tc.servers, s)
		tc.apis = append(tc.apis, s)
	}
	return tc
}
