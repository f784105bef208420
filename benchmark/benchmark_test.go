package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"zerber/internal/ranking"
)

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	sc := scales["tiny"]
	a, b := generate(sc, 1).fingerprint(200), generate(sc, 1).fingerprint(200)
	if a != b {
		t.Fatalf("seed 1 gave two different input sets: %s, %s", a, b)
	}
	if c := generate(sc, 2).fingerprint(200); c == a {
		t.Fatalf("seeds 1 and 2 gave the same inputs (%s)", a)
	}
}

func TestScriptHoldsTheLiveSetNearItsStart(t *testing.T) {
	in := generate(scales["tiny"], 3)
	s := in.newScript(0, 0, 140, 120)
	kinds := map[string]int{}
	for i := 0; i < 4000; i++ {
		kinds[s.next().kind]++
		if n := len(s.live); n < 120-10 || n > 120+10 {
			t.Fatalf("after %d operations %d documents are live, want about 120", i+1, n)
		}
	}
	if kinds[mutUpdate] < 1600 || kinds[mutDelete] < 800 || kinds[mutIndex] < 800 {
		t.Fatalf("script mix %v, want about 50%% update, 25%% delete, 25%% index", kinds)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {0, 1}, {10, 1}, {11, 2}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestWindowMedianIgnoresOneStalledWindow(t *testing.T) {
	var samples []sample
	// Five 1 s windows at 100/s, except the third, which stalls at 10/s.
	for w := 0; w < 5; w++ {
		n := 100
		if w == 2 {
			n = 10
		}
		for i := 0; i < n; i++ {
			samples = append(samples, sample{at: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond})
		}
	}
	samples = append(samples, sample{at: 5 * time.Second}) // outside the last window
	if got := median(windowRates(samples, 5*time.Second, 5)); got != 100 {
		t.Fatalf("median window rate = %v, want 100", got)
	}
	if got := median(windowRates(nil, 0, 5)); got != 0 {
		t.Fatalf("no time measured gives %v, want 0", got)
	}
}

func TestQuartilesMatchTheExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	sp := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if sp.q1 != 2.75 || sp.median != 5.5 || sp.q3 != 8.25 {
		t.Fatalf("quartiles = %+v, want 2.75, 5.5, 8.25", sp)
	}
	if math.Abs(sp.share-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", sp.share)
	}
}

// tree builds spans by hand: id, parent, layer, start, end in ns.
func mkSpan(id, parent uint64, layer string, start, end int64) *span {
	return &span{ID: id, Parent: parent, Req: 1, Layer: layer, Start: start, End: end}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	root := mkSpan(1, 0, layerClient, 0, 100)
	a := mkSpan(2, 1, layerTransport, 10, 50)
	b := mkSpan(3, 1, layerTransport, 30, 60)  // overlaps a
	c := mkSpan(4, 1, layerTransport, 90, 130) // runs past the root's end
	tr := buildTree([]*span{root, a, b, c})
	// Covered: [10,60) and [90,100) = 60.
	if got := tr.selfTime(root); got != 40 {
		t.Fatalf("root self time = %d, want 40", got)
	}
	if got := tr.selfTime(a); got != 40 {
		t.Fatalf("leaf self time = %d, want its duration 40", got)
	}
}

func TestBlockingPathFollowsTheCallThatWasWaitedFor(t *testing.T) {
	// A search fans out to three servers at t=10. Server 0 answers at 40,
	// server 1 at 60 (the k-th response: the client proceeds), server 2 is
	// cancelled at 62 and is abandoned. The client then decrypts until 100.
	root := mkSpan(1, 0, layerClient, 0, 100)
	t0 := mkSpan(2, 1, layerTransport, 10, 40)
	t1 := mkSpan(3, 1, layerTransport, 10, 60)
	t2 := mkSpan(4, 1, layerTransport, 10, 62)
	t2.Abandoned = true
	s1 := mkSpan(5, 3, layerServer, 20, 50)
	st := mkSpan(6, 5, layerStore, 25, 45)
	acc := map[string]time.Duration{}
	buildTree([]*span{root, t0, t1, t2, s1, st}).blockingPath(root, acc)
	want := map[string]time.Duration{
		layerClient:    50, // 0-10 and 60-100
		layerTransport: 20, // 10-20 and 50-60 of the blocking call
		layerServer:    10, // 20-25 and 45-50
		layerStore:     20,
	}
	var sum time.Duration
	for l, w := range want {
		if acc[l] != w {
			t.Errorf("%s on the blocking path = %d, want %d", l, acc[l], w)
		}
		sum += acc[l]
	}
	if sum != root.dur() {
		t.Errorf("layers sum to %d, root lasted %d", sum, root.dur())
	}
}

func TestBlockingPathChainsSequentialCalls(t *testing.T) {
	// A peer mutation: three Apply calls one after the other.
	root := mkSpan(1, 0, layerPeer, 0, 100)
	kids := []*span{root}
	for i := int64(0); i < 3; i++ {
		kids = append(kids, mkSpan(uint64(2+i), 1, layerTransport, 20+i*20, 35+i*20))
	}
	acc := map[string]time.Duration{}
	buildTree(kids).blockingPath(root, acc)
	if acc[layerTransport] != 45 || acc[layerPeer] != 55 {
		t.Fatalf("transport %d, peer %d; want 45 and 55", acc[layerTransport], acc[layerPeer])
	}
}

// TestCheckerIsNotVacuous hands the checker the three ways an answer
// can be wrong and requires each to be refused.
func TestCheckerIsNotVacuous(t *testing.T) {
	in := generate(scales["tiny"], 1)
	term := int32(0)
	name := in.names[term]
	// Documents 1..5 contain the term; document 3 is in a group the
	// searcher is not in. Scores: 1->9, 2->5, 4->5, 5->2.
	groups := map[uint32]bool{1: true}
	live := map[uint32][]termTF{
		1: {{term, 9}}, 2: {{term, 5}}, 3: {{term, 7}}, 4: {{term, 5}}, 5: {{term, 2}},
	}
	for id := range live {
		in.docs[id-1].group = 1
	}
	in.docs[2].group = 2
	or := newOracle(in, live)
	q := []string{name}

	want := or.expectedTopK(q, groups, 3)
	good := []ranking.ScoredDoc{{DocID: 1, Score: 9}, {DocID: 2, Score: 5}, {DocID: 4, Score: 5}}
	if err := checkTopK(good, want); err != nil {
		t.Fatalf("correct top-k refused: %v", err)
	}
	matches := or.matches(q, groups)
	if err := checkExact(good, matches, 3); err != nil {
		t.Fatalf("correct exact result refused: %v", err)
	}

	inaccessible := []ranking.ScoredDoc{{DocID: 1, Score: 9}, {DocID: 3, Score: 7}, {DocID: 2, Score: 5}}
	if checkTopK(inaccessible, want) == nil {
		t.Error("top-k check accepted a document from a group the user is not in")
	}
	if checkExact(inaccessible, matches, 3) == nil {
		t.Error("exact check accepted a document from a group the user is not in")
	}
	tieOrder := []ranking.ScoredDoc{{DocID: 1, Score: 9}, {DocID: 4, Score: 5}, {DocID: 2, Score: 5}}
	if checkTopK(tieOrder, want) == nil {
		t.Error("top-k check accepted equal scores out of document-ID order")
	}
	missing := good[:2]
	if checkTopK(missing, want) == nil {
		t.Error("top-k check accepted a result with a hit missing")
	}
	if checkExact(missing, matches, 3) == nil {
		t.Error("exact check accepted a result with a hit missing")
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func TestManifestDeclaresWhatTheCodePrints(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, m.Workloads[i].Name, w.name)
		}
	}
	compare := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			got := declared[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, got, d)
			}
			if bounded != (got.Bound != nil) || (bounded && *got.Bound != d.bound) {
				t.Errorf("%s metric %s: bound differs from the code's %v", kind, d.name, d.bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	if float64(m.RunSeconds) != 15 {
		t.Errorf("run_seconds = %d; the -seconds default and the README assume 15", m.RunSeconds)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runTiny runs one tiny-scale invocation and returns the metric lines it
// printed per workload (name -> occurrences, values) and its results.
func runTiny(t *testing.T, args ...string) (map[string]map[string][]float64, map[string]result) {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"-scale", "tiny", "-tmp", t.TempDir()}, args...)
	if err := run(args, &out); err != nil {
		t.Fatalf("benchmark %v: %v\n%s", args, err, out.String())
	}
	printed := make(map[string]map[string][]float64)
	results := make(map[string]result)
	last := ""
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results[last] = r
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("metric line %q: want workload, name, value, unit", line)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		if printed[f[0]] == nil {
			printed[f[0]] = make(map[string][]float64)
		}
		printed[f[0]][f[1]] = append(printed[f[0]][f[1]], v)
		last = f[0]
	}
	return printed, results
}

// checkPrinted asserts every declared metric was printed exactly once
// for every declared workload, finite and well named, with no failures.
func checkPrinted(t *testing.T, declared []manifestMetric, printed map[string]map[string][]float64, results map[string]result, nonZero bool) {
	t.Helper()
	for _, w := range readManifest(t).Workloads {
		got := printed[w.Name]
		if len(got) != len(declared) {
			t.Errorf("%s printed %d metrics, BENCHMARK.json declares %d", w.Name, len(got), len(declared))
		}
		res, ok := results[w.Name]
		if !ok {
			t.Fatalf("%s printed no result object", w.Name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range declared {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q is malformed", d.Name)
			}
			vs := got[d.Name]
			if len(vs) != 1 {
				t.Errorf("%s printed %s %d times, want once", w.Name, d.Name, len(vs))
				continue
			}
			jv, ok := res.Metrics[d.Name]
			if !ok || jv.Unit != d.Unit {
				t.Errorf("%s result object lacks %s in %s", w.Name, d.Name, d.Unit)
			}
			if math.IsNaN(jv.Value) || math.IsInf(jv.Value, 0) {
				t.Errorf("%s %s = %v", w.Name, d.Name, jv.Value)
			}
			if nonZero && jv.Value <= 0 {
				t.Errorf("%s %s = %v, an end-to-end metric must never be 0", w.Name, d.Name, jv.Value)
			}
		}
	}
}

func TestTinyTimedSuite(t *testing.T) {
	printed, results := runTiny(t, "-seconds", "0.25", "-trace", "0")
	checkPrinted(t, readManifest(t).EndToEnd, printed, results, true)
}

func TestTinyTracedSuite(t *testing.T) {
	spans := t.TempDir() + "/spans.jsonl"
	printed, results := runTiny(t, "-seconds", "0.3", "-trace", "1", "-trace-out", spans)
	checkPrinted(t, readManifest(t).PerLayer, printed, results, false)

	// exact-mem and topk-mem load the same documents in the same order
	// and run the same check queries, so every count that depends only on
	// the inputs must be identical between the two runs.
	for _, name := range []string{
		"client.elements_per_search", "client.false_positive_share", "client.servers_per_search",
		"transport.resp_bytes_per_search", "merging.r_value",
	} {
		a, b := results["exact-mem"].Metrics[name].Value, results["topk-mem"].Metrics[name].Value
		if a != b || a == 0 {
			t.Errorf("%s: %v on exact-mem, %v on topk-mem; want equal and non-zero", name, a, b)
		}
	}
	// How many accessible elements a top-k block window holds, and so
	// how many rounds a search needs, also depends on the random order in
	// which a peer shuffles each flush: these repeat closely, not exactly.
	// Call counts are read around each pass, and a straggler's goroutine
	// may issue its call a moment after its search returned.
	for _, name := range []string{
		"transport.calls_per_search",
		"client.elements_per_searchk", "client.ta_pruned_share", "client.ta_blocks_per_searchk",
		"transport.calls_per_searchk", "transport.resp_bytes_per_searchk",
	} {
		a, b := results["exact-mem"].Metrics[name].Value, results["topk-mem"].Metrics[name].Value
		if a == 0 || math.Abs(a-b) > 0.05*a {
			t.Errorf("%s: %v on exact-mem, %v on topk-mem; want within 5%%", name, a, b)
		}
	}

	// Every request's time lands in some layer, and in the layers the
	// workload goes through. (Which layer leads is a full-scale result,
	// recorded in README.md; at this scale, and under the race detector,
	// fixed per-call cost decides it.)
	share := func(w, layer string) float64 { return results[w].Metrics["path."+layer+"_share"].Value }
	for _, w := range readManifest(t).Workloads {
		sum := 0.0
		for _, l := range pathLayers {
			sum += share(w.Name, l)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: layer shares sum to %v", w.Name, sum)
		}
	}
	if share("exact-mem", layerClient) <= 0 || share("exact-mem", layerStore) <= 0 || share("exact-mem", layerPeer) != 0 {
		t.Errorf("exact-mem: client %v, store %v, peer %v", share("exact-mem", layerClient), share("exact-mem", layerStore), share("exact-mem", layerPeer))
	}
	if p := share("write-journal", layerPeer); p <= 0 || share("write-journal", layerClient) != 0 {
		t.Errorf("write-journal: peer share %v, client share %v", p, share("write-journal", layerClient))
	}
	for _, w := range []string{"exact-mem", "topk-mem", "write-journal"} {
		root, sum := results[w].Metrics["path.root_ms_p50"].Value, results[w].Metrics["path.layer_sum_ms"].Value
		if root <= 0 || sum <= 0 {
			t.Errorf("%s: root p50 %v ms, layer sum %v ms", w, root, sum)
		}
	}

	// The span file of the last workload is well formed and nests.
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]span{}
	var all []span
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		byID[s.ID] = s
		all = append(all, s)
	}
	layers := map[string]int{}
	for _, s := range all {
		layers[s.Layer]++
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", s.ID, s.Parent)
		}
		if p.Req != s.Req || s.Start < p.Start {
			t.Fatalf("span %d does not nest under its parent %d", s.ID, p.ID)
		}
	}
	for _, l := range pathLayers {
		if layers[l] == 0 {
			t.Errorf("mixed-disk trace has no %s span", l)
		}
	}
}

func TestRepeatReportsSpreadAgainstBounds(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scale", "tiny", "-tmp", t.TempDir(),
		"-workload", "topk-mem", "-seconds", "0.1", "-repeat", "3"}, &out)
	// Three 0.1 s runs may or may not stay within the bounds; either way
	// every end-to-end metric must be reported with its bound.
	if err != nil && !strings.Contains(err.Error(), "exceed their bound") {
		t.Fatalf("repeat: %v\n%s", err, out.String())
	}
	for _, d := range endToEnd {
		if !strings.Contains(out.String(), d.name) {
			t.Errorf("repeat report lacks %s:\n%s", d.name, out.String())
		}
	}
}

func TestUnknownInputsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-scale", "huge"}, {"-seconds", "0"}, {"-trace", "2"}, {"stray"},
	} {
		if err := run(append(args, "-tmp", t.TempDir()), &bytes.Buffer{}); err == nil {
			t.Errorf("benchmark %v: want an error", args)
		}
	}
}
