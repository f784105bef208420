// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7), one per experiment, plus micro-benchmarks for the
// primitive operations the paper quotes (§5.1) and the end-to-end
// query path. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks share one scaled corpus environment; their
// per-iteration time is the cost of regenerating that table/figure.
package zerber_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"zerber"
	"zerber/internal/client"
	"zerber/internal/experiments"
	"zerber/internal/field"
	"zerber/internal/peer"
	"zerber/internal/proactive"
	"zerber/internal/shamir"
	"zerber/internal/transport"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env returns the shared benchmark environment: a seeded, scaled-down
// ODP-like corpus with query log (see DESIGN.md §5 for the scaling
// argument).
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(experiments.Config{
			Seed: 42, NumDocs: 4000, VocabSize: 20000, NumQueries: 20000,
		})
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

func benchReport(b *testing.B, run func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- §5.1 timing ----------------------------------------------------

// BenchmarkEncryptDocument measures Algorithm 1a on a 5,000-distinct-term
// document with k=2, n=3 (paper: ~33 ms per server on 2007 hardware).
func BenchmarkEncryptDocument(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := []field.Element{1, 2, 3}
	secrets := make([]field.Element, 5000)
	for i := range secrets {
		secrets[i] = field.New(rng.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range secrets {
			if _, err := shamir.Split(s, 2, xs, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecryptElements measures Algorithm 1b throughput with the
// precomputed-basis fast path (paper: 700 elements per ms).
func BenchmarkDecryptElements(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := []field.Element{1, 2, 3}
	const n = 700
	ys := make([][]field.Element, n)
	for i := range ys {
		shares, err := shamir.Split(field.New(rng.Uint64()), 2, xs, rng)
		if err != nil {
			b.Fatal(err)
		}
		ys[i] = []field.Element{shares[0].Y, shares[1].Y}
	}
	rec, err := shamir.NewReconstructor(xs[:2])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, y := range ys {
			if _, err := rec.Reconstruct(y); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReconstructGaussian and BenchmarkReconstructLagrange are the
// DESIGN.md ablation: the O(k^3) Gaussian method named in Algorithm 1b
// versus Lagrange interpolation.
func BenchmarkReconstructGaussian(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	shares, err := shamir.Split(12345, 3, []field.Element{1, 2, 3, 4}, rng)
	if err != nil {
		b.Fatal(err)
	}
	benchReport(b, func() error {
		_, err := shamir.ReconstructGaussian(shares, 3)
		return err
	})
}

func BenchmarkReconstructLagrange(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	shares, err := shamir.Split(12345, 3, []field.Element{1, 2, 3, 4}, rng)
	if err != nil {
		b.Fatal(err)
	}
	benchReport(b, func() error {
		_, err := shamir.Reconstruct(shares, 3)
		return err
	})
}

// ---- per-figure experiment benchmarks --------------------------------

// BenchmarkFig5StudIPProfile regenerates Fig. 5 (Stud-IP profile).
func BenchmarkFig5StudIPProfile(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _ = e.Fig5(); return nil })
}

// BenchmarkFig6CumulativeWorkload regenerates Fig. 6.
func BenchmarkFig6CumulativeWorkload(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _ = e.Fig6(); return nil })
}

// BenchmarkFig7TermProbability regenerates Fig. 7 (r-parameter selection).
func BenchmarkFig7TermProbability(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _ = e.Fig7(); return nil })
}

// BenchmarkTable1MergingR regenerates Table 1 (1/r per heuristic).
func BenchmarkTable1MergingR(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _, err := e.Table1(); return err })
}

// BenchmarkFig8RvsM regenerates Fig. 8 (r versus M).
func BenchmarkFig8RvsM(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _, err := e.Fig8(); return err })
}

// BenchmarkFig9Amplification regenerates Fig. 9 (per-term amplification).
func BenchmarkFig9Amplification(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _, err := e.Fig9(); return err })
}

// BenchmarkFig10QRatio regenerates Fig. 10 (workload cost ratios).
func BenchmarkFig10QRatio(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _, err := e.Fig10(); return err })
}

// BenchmarkFig11Efficiency regenerates Fig. 11 (query efficiency).
func BenchmarkFig11Efficiency(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _, err := e.Fig11(); return err })
}

// BenchmarkFig12ResponseSize regenerates Fig. 12 (response sizes).
func BenchmarkFig12ResponseSize(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _, err := e.Fig12(); return err })
}

// BenchmarkStorageOverhead regenerates the §7.2 storage accounting.
func BenchmarkStorageOverhead(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _ = e.Storage(); return nil })
}

// BenchmarkBandwidthPerQuery regenerates the §7.3 bandwidth model.
func BenchmarkBandwidthPerQuery(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _, err := e.Bandwidth(); return err })
}

// BenchmarkMuServComparison regenerates the §3 μ-Serv comparison.
func BenchmarkMuServComparison(b *testing.B) {
	e := env(b)
	benchReport(b, func() error { _ = e.MuServ(); return nil })
}

// ---- end-to-end system benchmarks ------------------------------------

type benchCluster struct {
	cluster  *zerber.Cluster
	searcher *zerber.Searcher
	tok      zerber.Token
	peer     *peer.Peer
}

var (
	benchClusterOnce sync.Once
	benchClusterVal  *benchCluster
	benchClusterErr  error
)

func cluster(b *testing.B) *benchCluster {
	b.Helper()
	benchClusterOnce.Do(func() {
		benchClusterVal, benchClusterErr = buildBenchCluster()
	})
	if benchClusterErr != nil {
		b.Fatal(benchClusterErr)
	}
	return benchClusterVal
}

func buildBenchCluster() (*benchCluster, error) {
	e, err := experiments.NewEnv(experiments.Config{
		Seed: 7, NumDocs: 400, VocabSize: 4000, NumQueries: 1000,
	})
	if err != nil {
		return nil, err
	}
	c, err := zerber.NewCluster(e.Stats.DocFreq, zerber.Options{Seed: 7})
	if err != nil {
		return nil, err
	}
	c.AddUser("bench", 1)
	tok := c.IssueToken("bench")
	p, err := c.NewPeer("bench-site", 7)
	if err != nil {
		return nil, err
	}
	batch := p.NewBatch()
	for _, d := range e.ODP.Docs {
		content := ""
		for term := range d.Counts {
			content += term + " "
		}
		if err := batch.Add(peer.Document{ID: d.ID, Content: content, Group: 1}); err != nil {
			return nil, err
		}
	}
	if err := batch.Flush(tok); err != nil {
		return nil, err
	}
	s, err := c.Searcher()
	if err != nil {
		return nil, err
	}
	return &benchCluster{cluster: c, searcher: s, tok: tok, peer: p}, nil
}

// BenchmarkSearchTop10 measures a full query: fan-out to k servers, join,
// decrypt, filter, rank, snippet.
func BenchmarkSearchTop10(b *testing.B) {
	bc := cluster(b)
	e := env(b)
	query := []string{e.Ranked[3], e.Ranked[50]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.searcher.Search(bc.tok, query, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- top-k early termination ----------------------------------------

// topkBenchEnv holds one cluster per posting-list length, shared across
// the BenchmarkSearchTopK sub-benchmarks.
var (
	topkBenchMu   sync.Mutex
	topkBenchEnvs = map[int]*benchCluster{}
)

// topkCluster builds (once per length) a cluster whose hot term has a
// posting list of exactly listLen elements: a head of 30 high-frequency
// documents and a long tf=1 tail — the Zipfian hot-term shape whose
// whole-list retrieval cost the block protocol is meant to escape.
func topkCluster(b *testing.B, listLen int) *benchCluster {
	b.Helper()
	topkBenchMu.Lock()
	defer topkBenchMu.Unlock()
	if bc, ok := topkBenchEnvs[listLen]; ok {
		return bc
	}
	dfs := map[string]int{"hotterm": listLen, "aside": 50, "bside": 40}
	c, err := zerber.NewCluster(dfs, zerber.Options{Seed: 17, M: 2})
	if err != nil {
		b.Fatal(err)
	}
	c.AddUser("bench", 1)
	tok := c.IssueToken("bench")
	p, err := c.NewPeer("topk-site", 17)
	if err != nil {
		b.Fatal(err)
	}
	batch := p.NewBatch()
	for i := 0; i < listLen; i++ {
		content := "hotterm"
		if i < 30 {
			// The contenders: tf high enough to land in a top impact
			// bucket, so rank 10 is provably final after the head.
			for j := 0; j < 7; j++ {
				content += " hotterm"
			}
		}
		if i%2 == 0 {
			content += " aside"
		} else {
			content += " bside"
		}
		if err := batch.Add(peer.Document{ID: uint32(i + 1), Content: content, Group: 1}); err != nil {
			b.Fatal(err)
		}
	}
	if err := batch.Flush(tok); err != nil {
		b.Fatal(err)
	}
	bc := &benchCluster{cluster: c, tok: tok, peer: p}
	topkBenchEnvs[listLen] = bc
	return bc
}

// BenchmarkSearchTopK pits whole-list retrieval against the
// early-terminating block protocol at k=10 over growing posting-list
// lengths. Exhaustive cost grows linearly with the list; the top-k
// path's stays near-flat (it stops after the head blocks prove rank 10
// final), so the gap must widen as the list grows — the tentpole claim
// of Zerber+R §6. Both variants run the same client machinery over the
// same cluster; only the retrieval protocol differs.
func BenchmarkSearchTopK(b *testing.B) {
	for _, listLen := range []int{500, 2000, 8000} {
		bc := topkCluster(b, listLen)
		cl, err := client.New(bc.cluster.APIs(), bc.cluster.K(), bc.cluster.Table(), bc.cluster.Vocab())
		if err != nil {
			b.Fatal(err)
		}
		query := []string{"hotterm"}
		b.Run(fmt.Sprintf("full/len=%d", listLen), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.Search(bc.tok, query, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("topk/len=%d", listLen), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.SearchTopK(bc.tok, query, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProactiveReshare measures one share-refresh round over a
// 3-server cluster holding ~300 elements.
func BenchmarkProactiveReshare(b *testing.B) {
	bc := cluster(b)
	servers := bc.cluster.Servers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proactive.Reshare(servers, bc.cluster.K(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexDocument measures the owner-side path: tokenize, encrypt
// all elements, push to n servers.
func BenchmarkIndexDocument(b *testing.B) {
	bc := cluster(b)
	content := ""
	e := env(b)
	for i := 0; i < 100; i++ {
		content += e.Ranked[i*7%len(e.Ranked)] + " "
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := peer.Document{ID: uint32(1000000 + i), Content: content, Group: 1}
		if err := bc.peer.IndexDocument(bc.tok, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- concurrent query engine ----------------------------------------

// parallelBenchEnv is a 5-server, k=3 cluster whose transports carry a
// simulated per-call RTT, indexed with the shared scaled corpus (the
// same Stud-IP/ODP-profile environment the Fig. 5 benchmarks use). The
// Retrieve benchmarks below compare the sequential baseline against the
// parallel fan-out on it.
type parallelBenchEnv struct {
	cluster *zerber.Cluster
	tok     zerber.Token
	query   []string
}

const benchRTT = 2 * time.Millisecond

var (
	parallelEnvOnce sync.Once
	parallelEnvVal  *parallelBenchEnv
	parallelEnvErr  error
)

func parallelEnv(b *testing.B) *parallelBenchEnv {
	b.Helper()
	parallelEnvOnce.Do(func() {
		parallelEnvVal, parallelEnvErr = buildParallelEnv(env(b))
	})
	if parallelEnvErr != nil {
		b.Fatal(parallelEnvErr)
	}
	return parallelEnvVal
}

func buildParallelEnv(e *experiments.Env) (*parallelBenchEnv, error) {
	c, err := zerber.NewCluster(e.Stats.DocFreq, zerber.Options{N: 5, K: 3, Seed: 11})
	if err != nil {
		return nil, err
	}
	c.AddUser("bench", 1)
	tok := c.IssueToken("bench")
	p, err := c.NewPeer("bench-site", 11)
	if err != nil {
		return nil, err
	}
	batch := p.NewBatch()
	for _, d := range e.ODP.Docs {
		content := ""
		for term := range d.Counts {
			content += term + " "
		}
		if err := batch.Add(peer.Document{ID: d.ID, Content: content, Group: 1}); err != nil {
			return nil, err
		}
	}
	if err := batch.Flush(tok); err != nil {
		return nil, err
	}
	return &parallelBenchEnv{
		cluster: c,
		tok:     tok,
		query:   []string{e.Ranked[3], e.Ranked[50]},
	}, nil
}

// tunedClient builds a query client over latency-wrapped transports.
func (pe *parallelBenchEnv) tunedClient(b *testing.B, tuning client.Tuning) *client.Client {
	b.Helper()
	apis := pe.cluster.APIs()
	delayed := make([]transport.API, len(apis))
	for i, api := range apis {
		delayed[i] = transport.WithLatency(api, benchRTT)
	}
	cl, err := client.New(delayed, pe.cluster.K(), pe.cluster.Table(), pe.cluster.Vocab())
	if err != nil {
		b.Fatal(err)
	}
	cl.SetTuning(tuning)
	return cl
}

// BenchmarkRetrieveParallel compares the query engine's tunings on a
// 5-server, k=3 cluster with a simulated 2 ms server RTT: the
// pre-concurrency sequential walk (one request at a time) pays k serial
// RTTs; the default fan-out asks k servers at once and pays roughly
// one, bounded by the slowest of them until a hedge adds another.
func BenchmarkRetrieveParallel(b *testing.B) {
	pe := parallelEnv(b)
	for _, tc := range []struct {
		name   string
		tuning client.Tuning
	}{
		{"sequential", client.Tuning{Fanout: 1}},
		{"fanout", client.Tuning{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cl := pe.tunedClient(b, tc.tuning)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.Retrieve(pe.tok, pe.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
