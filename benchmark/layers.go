package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"zerber/internal/field"
	"zerber/internal/posting"
	"zerber/internal/shamir"
)

// perLayer are the metrics a traced run (-trace 1) prints for every
// workload, outside in. A metric whose layer the workload does not
// exercise reads 0. README.md says which end-to-end metric each one
// should move.
var perLayer = []metricDef{
	// client: plan, join, Lagrange decrypt, rank, threshold rounds.
	{name: "client.search_self_ms_p50", unit: "ms", better: "lower"},
	{name: "client.searchk_self_ms_p50", unit: "ms", better: "lower"},
	{name: "client.search_ms_p99", unit: "ms", better: "lower"},
	{name: "client.searchk_ms_p99", unit: "ms", better: "lower"},
	{name: "client.elements_per_search", unit: "count", better: "lower"},
	{name: "client.elements_per_searchk", unit: "count", better: "lower"},
	{name: "client.false_positive_share", unit: "share", better: "lower"},
	{name: "client.servers_per_search", unit: "count", better: "lower"},
	{name: "client.ta_blocks_per_searchk", unit: "count", better: "lower"},
	{name: "client.ta_pruned_share", unit: "share", better: "higher"},
	{name: "client.reccache_hit_share", unit: "share", better: "higher"},
	// transport: client-side span minus server-side span.
	{name: "transport.lookup_self_ms_p50", unit: "ms", better: "lower"},
	{name: "transport.lookupblocks_self_ms_p50", unit: "ms", better: "lower"},
	{name: "transport.apply_self_ms_p50", unit: "ms", better: "lower"},
	{name: "transport.calls_per_search", unit: "count", better: "lower"},
	{name: "transport.calls_per_searchk", unit: "count", better: "lower"},
	{name: "transport.calls_per_mutate", unit: "count", better: "lower"},
	{name: "transport.resp_bytes_per_search", unit: "B", better: "lower"},
	{name: "transport.resp_bytes_per_searchk", unit: "B", better: "lower"},
	{name: "transport.req_bytes_per_mutate", unit: "B", better: "lower"},
	{name: "transport.abandoned_share", unit: "share", better: "lower"},
	// server: auth, group table, op window.
	{name: "server.lookup_self_ms_p50", unit: "ms", better: "lower"},
	{name: "server.lookupblocks_self_ms_p50", unit: "ms", better: "lower"},
	{name: "server.apply_self_ms_p50", unit: "ms", better: "lower"},
	{name: "server.busy_share", unit: "share", better: "lower"},
	{name: "server.elements_served_per_lookup", unit: "count", better: "lower"},
	// store: per call, group filter included (it runs under the lock).
	{name: "store.scan_ms_p50", unit: "ms", better: "lower"},
	{name: "store.scan_ms_p99", unit: "ms", better: "lower"},
	{name: "store.scanrange_ms_p50", unit: "ms", better: "lower"},
	{name: "store.scanrange_ms_p99", unit: "ms", better: "lower"},
	{name: "store.upsert_ms_p50", unit: "ms", better: "lower"},
	{name: "store.upsert_ms_p99", unit: "ms", better: "lower"},
	{name: "store.deleteif_ms_p50", unit: "ms", better: "lower"},
	{name: "store.elements_per_scan", unit: "count", better: "lower"},
	{name: "store.disk_bytes_per_live_byte", unit: "ratio", better: "lower"},
	{name: "store.compactions", unit: "count", better: "lower"},
	{name: "store.cache_resident_share", unit: "share", better: "higher"},
	// peer: tokenise, stage, share generation.
	{name: "peer.index_ms_p50", unit: "ms", better: "lower"},
	{name: "peer.update_ms_p50", unit: "ms", better: "lower"},
	{name: "peer.delete_ms_p50", unit: "ms", better: "lower"},
	{name: "peer.mutate_self_ms_p50", unit: "ms", better: "lower"},
	{name: "peer.elements_per_mutate", unit: "count", better: "lower"},
	{name: "peer.bulk_flush_ms_per_kelem", unit: "ms", better: "lower"},
	// journal: a differential, it has no seam to wrap.
	{name: "journal.overhead_ms_p50", unit: "ms", better: "lower"},
	{name: "journal.bytes_per_mutate", unit: "B", better: "lower"},
	// kernels: direct calls, k=2, n=3.
	{name: "shamir.reconstruct_ns_per_elem", unit: "ns", better: "lower"},
	{name: "shamir.split_ns_per_elem", unit: "ns", better: "lower"},
	{name: "posting.encrypt_ns_per_elem", unit: "ns", better: "lower"},
	// process, over the untraced leg.
	{name: "process.allocs_per_op", unit: "count", better: "lower"},
	{name: "process.alloc_kb_per_op", unit: "KiB", better: "lower"},
	{name: "process.gc_cpu_share", unit: "share", better: "lower"},
	{name: "process.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "process.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	// Where a request's time goes along the calls it waited for.
	{name: "path.root_ms_p50", unit: "ms", better: "lower"},
	{name: "path.layer_sum_ms", unit: "ms", better: "lower"},
	{name: "path.client_share", unit: "share", better: "lower"},
	{name: "path.peer_share", unit: "share", better: "lower"},
	{name: "path.transport_share", unit: "share", better: "lower"},
	{name: "path.server_share", unit: "share", better: "lower"},
	{name: "path.store_share", unit: "share", better: "lower"},
	// Set by the inputs, not by code speed; it must not move.
	{name: "merging.r_value", unit: "ratio", better: "lower"},
}

var pathLayers = []string{layerClient, layerPeer, layerTransport, layerServer, layerStore}

// procStats is a reading of the process-wide counters.
type procStats struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64 // seconds, runtime's own accounting
	cpu                 time.Duration
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	ps := procStats{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		ps.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		ps.totalCPU = samples[1].Value.Float64()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		ps.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return ps
}

// peakRSSMiB reads the process's high-water resident set (Linux reports
// it in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// kernels times the three arithmetic kernels directly on batches of n
// elements and returns nanoseconds per element, the best of several
// passes so a collection in one pass does not count.
func kernels(n int) (reconstruct, split, encrypt float64, err error) {
	xs := []field.Element{1, 2, 3}
	sp, err := shamir.NewSplitter(threshold, xs)
	if err != nil {
		return 0, 0, 0, err
	}
	rec, err := shamir.NewReconstructor(xs[:threshold])
	if err != nil {
		return 0, 0, 0, err
	}
	elems := make([]posting.Element, n)
	gids := make([]posting.GlobalID, n)
	secrets := make([]field.Element, n)
	for i := range elems {
		elems[i] = posting.Element{DocID: uint32(i + 1), TermID: uint32(i % 1000), TF: uint16(1 + i%7)}
		gids[i] = posting.GlobalID(i + 1)
		secrets[i] = elems[i].MustEncode()
	}
	dst := make([]field.Element, len(xs)*n)
	best := func(pass func() error) (float64, error) {
		b := time.Duration(1 << 62)
		for i := 0; i < 9; i++ {
			t0 := time.Now()
			if err := pass(); err != nil {
				return 0, err
			}
			if d := time.Since(t0); d < b {
				b = d
			}
		}
		return float64(b) / float64(n), nil
	}
	if split, err = best(func() error { return sp.SplitBatch(secrets, dst, nil) }); err != nil {
		return
	}
	if reconstruct, err = best(func() error {
		ys := make([]field.Element, threshold)
		for e := 0; e < n; e++ {
			ys[0], ys[1] = dst[e], dst[n+e]
			s, err := rec.Reconstruct(ys)
			if err != nil {
				return err
			}
			if s != secrets[e] {
				return fmt.Errorf("element %d reconstructs to %d, want %d", e, s, secrets[e])
			}
		}
		return nil
	}); err != nil {
		return
	}
	if encrypt, err = best(func() error {
		_, err := posting.EncryptBatch(sp, elems, gids, 1, nil)
		return err
	}); err != nil {
		return
	}
	return
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is one traced run of one workload. The index is set up as in
// a timed run, but one closed-loop client drives it, so that store calls
// nest under the one server call executing on their server: first an
// untraced leg (a third of -seconds; process counters are read around
// it), then the traced leg (the other two thirds), then on write
// workloads the journaled peer's leg, then the correctness check, whose
// fixed query set gives the counts that depend only on the index.
func runTraced(spec workloadSpec, sc scale, o options) (result, error) {
	tr := newTracer(numServers)
	e, err := setUp(spec, sc, o.seed, clients(), o.tmpRoot, tr)
	if err != nil {
		return result{}, err
	}
	defer e.Close()
	runtime.GC()

	total := time.Duration(o.seconds * float64(time.Second))
	warm := closedLoop(1, warmup(total), e.doOp)

	// On a read-only workload both legs replay the same queries from the
	// start of the client's stream, so their difference is the tracing
	// and not the luck of the draw.
	replay := func() {
		if !spec.writes {
			e.streams[0] = e.in.stream(0)
		}
	}
	replay()
	p0 := readProc()
	plain := closedLoop(1, total/3, e.doOp)
	p1 := readProc()
	replay()

	wire0, swire0 := e.mutateWire.snapshot(), e.searchWire.snapshot()
	tr.on.Store(true)
	traced := closedLoop(1, total-total/3, e.doOp)
	tr.on.Store(false)
	wire1, swire1 := e.mutateWire.snapshot(), e.searchWire.snapshot()
	spans := tr.snapshot()
	storeCalls := tr.storeCalls
	tr.reset()

	// The journal's cost, as a difference: the same script on a peer with
	// JournalPath set (every mutation is fsynced before its first send)
	// over its own documents, against the unjournaled peers of the leg
	// above. The journal is kept out of the timed loops because its cost
	// here is the sandbox's flush latency, which drifts by a factor of two
	// within the hour and took every gated metric with it. The peer first
	// indexes up to its target so the measured mix matches.
	var journaledSelf []time.Duration
	journalLeg := &phase{}
	var journalBytes int64
	if jp := e.journaled; jp != nil {
		for len(jp.live) < jp.script.target {
			if err := jp.step(tr); err != nil {
				return result{}, fmt.Errorf("filling the journaled peer: %w", err)
			}
		}
		jn0 := fileSize(jp.journal)
		tr.on.Store(true)
		journalLeg = closedLoop(1, total/5, func(int) error { return jp.step(tr) })
		tr.on.Store(false)
		journalBytes = fileSize(jp.journal) - jn0
		st := buildTree(tr.snapshot())
		for _, r := range st.roots {
			if !r.Abandoned {
				journaledSelf = append(journaledSelf, st.selfTime(r))
			}
		}
		tr.reset()
	}

	chk := e.check()
	kRec, kSplit, kEnc, err := kernels(sc.kernelBatch)
	if err != nil {
		return result{}, fmt.Errorf("kernels: %w", err)
	}

	m := make(map[string]float64, len(perLayer))
	tree := buildTree(spans)

	// Spans, grouped.
	durs := make(map[string][]time.Duration)  // "layer.name" -> durations
	selfs := make(map[string][]time.Duration) // "layer.name" -> self times
	elems := make(map[string][2]int)          // "layer.name" -> {elements, spans}
	var serverBusy time.Duration
	for _, s := range spans {
		key := s.Layer + "." + s.Name
		if s.Layer == layerServer {
			serverBusy += s.dur()
		}
		if s.Abandoned {
			continue
		}
		durs[key] = append(durs[key], s.dur())
		selfs[key] = append(selfs[key], tree.selfTime(s))
		c := elems[key]
		elems[key] = [2]int{c[0] + s.Elems, c[1] + 1}
	}
	p := func(ds []time.Duration, q float64) float64 { return percentile(ms(ds), q) }

	m["client.search_self_ms_p50"] = p(selfs["client.search"], 50)
	m["client.searchk_self_ms_p50"] = p(selfs["client.searchk"], 50)
	m["client.search_ms_p99"] = p(durs["client.search"], 99)
	m["client.searchk_ms_p99"] = p(durs["client.searchk"], 99)

	c := chk.counts
	nq := float64(c.queries)
	m["client.elements_per_search"] = ratio(float64(c.elems), nq)
	m["client.elements_per_searchk"] = ratio(float64(c.elemsK), nq)
	m["client.false_positive_share"] = ratio(float64(c.falsePos), float64(c.elems))
	m["client.servers_per_search"] = ratio(float64(c.servers), nq)
	m["client.ta_blocks_per_searchk"] = ratio(float64(c.blocks), nq)
	m["client.ta_pruned_share"] = 1 - ratio(float64(c.taDecrypted), float64(c.taTotal))
	m["client.reccache_hit_share"] = ratio(float64(c.recHits), float64(c.recHits+c.recMisses))
	m["transport.calls_per_search"] = ratio(float64(c.calls), nq)
	m["transport.calls_per_searchk"] = ratio(float64(c.callsK), nq)
	m["transport.resp_bytes_per_search"] = ratio(float64(c.respBytes), nq)
	m["transport.resp_bytes_per_searchk"] = ratio(float64(c.respBytesK), nq)

	m["transport.lookup_self_ms_p50"] = p(selfs["transport.lookup"], 50)
	m["transport.lookupblocks_self_ms_p50"] = p(selfs["transport.lookupblocks"], 50)
	m["transport.apply_self_ms_p50"] = p(selfs["transport.apply"], 50)
	mutations := float64(len(durs["peer.index"]) + len(durs["peer.update"]) + len(durs["peer.delete"]))
	m["transport.calls_per_mutate"] = ratio(float64(wire1.applyCalls-wire0.applyCalls), mutations)
	m["transport.req_bytes_per_mutate"] = ratio(float64(wire1.reqBytes-wire0.reqBytes), mutations)
	m["transport.abandoned_share"] = ratio(
		float64(wire1.abandoned-wire0.abandoned+swire1.abandoned-swire0.abandoned),
		float64(wire1.calls-wire0.calls+swire1.calls-swire0.calls))

	m["server.lookup_self_ms_p50"] = p(selfs["server.lookup"], 50)
	m["server.lookupblocks_self_ms_p50"] = p(selfs["server.lookupblocks"], 50)
	m["server.apply_self_ms_p50"] = p(selfs["server.apply"], 50)
	m["server.busy_share"] = ratio(float64(serverBusy), float64(traced.length)*numServers)
	lk, lb := elems["server.lookup"], elems["server.lookupblocks"]
	m["server.elements_served_per_lookup"] = ratio(float64(lk[0]+lb[0]), float64(lk[1]+lb[1]))

	m["store.scan_ms_p50"] = p(storeCalls["scan"], 50)
	m["store.scan_ms_p99"] = p(storeCalls["scan"], 99)
	m["store.scanrange_ms_p50"] = p(storeCalls["scanrange"], 50)
	m["store.scanrange_ms_p99"] = p(storeCalls["scanrange"], 99)
	m["store.upsert_ms_p50"] = p(storeCalls["upsert"], 50)
	m["store.upsert_ms_p99"] = p(storeCalls["upsert"], 99)
	m["store.deleteif_ms_p50"] = p(storeCalls["deleteif"], 50)
	sc1, sc2 := elems["store.scan"], elems["store.scanrange"]
	m["store.elements_per_scan"] = ratio(float64(sc1[0]+sc2[0]), float64(sc1[1]+sc2[1]))
	var diskBytes, liveBytes, cached, stored float64
	for i, d := range e.cl.disks {
		st := d.Stats()
		diskBytes += float64(st.DiskBytes)
		liveBytes += float64(st.LiveBytes)
		cached += float64(st.CachedBytes)
		stored += float64(e.cl.stores[i].TotalElements())
		m["store.compactions"] += float64(st.Compactions)
	}
	m["store.disk_bytes_per_live_byte"] = ratio(diskBytes, liveBytes)
	m["store.cache_resident_share"] = ratio(cached, stored*residentShareBytes)

	m["peer.index_ms_p50"] = p(durs["peer.index"], 50)
	m["peer.update_ms_p50"] = p(durs["peer.update"], 50)
	m["peer.delete_ms_p50"] = p(durs["peer.delete"], 50)
	var peerSelf []time.Duration
	for _, k := range []string{"peer.index", "peer.update", "peer.delete"} {
		peerSelf = append(peerSelf, selfs[k]...)
	}
	m["peer.mutate_self_ms_p50"] = p(peerSelf, 50)
	m["peer.elements_per_mutate"] = ratio(float64(wire1.applyOps-wire0.applyOps)/numServers, mutations)
	m["peer.bulk_flush_ms_per_kelem"] = ratio(float64(e.bulkTime)/float64(time.Millisecond), float64(e.bulkPostings)/1000)
	if len(journaledSelf) > 0 {
		m["journal.overhead_ms_p50"] = p(journaledSelf, 50) - p(peerSelf, 50)
	}
	m["journal.bytes_per_mutate"] = ratio(float64(journalBytes), float64(len(journalLeg.samples)))

	m["shamir.reconstruct_ns_per_elem"] = kRec
	m["shamir.split_ns_per_elem"] = kSplit
	m["posting.encrypt_ns_per_elem"] = kEnc

	ops := float64(len(plain.samples))
	m["process.allocs_per_op"] = ratio(float64(p1.mallocs-p0.mallocs), ops)
	m["process.alloc_kb_per_op"] = ratio(float64(p1.allocBytes-p0.allocBytes)/1024, ops)
	m["process.gc_cpu_share"] = ratio(p1.gcCPU-p0.gcCPU, p1.totalCPU-p0.totalCPU)
	m["process.cpu_ms_per_op"] = ratio(float64(p1.cpu-p0.cpu)/float64(time.Millisecond), ops)
	m["process.peak_rss_mb"] = peakRSSMiB()
	// Tracing overhead: how much longer the traced leg took to finish as
	// many operations as the shorter of the two legs completed.
	if n := min(len(plain.samples), len(traced.samples)); n > 0 {
		m["trace.overhead_share"] = 1 - ratio(float64(plain.samples[n-1].at), float64(traced.samples[n-1].at))
	}

	pathMetrics(tree, m)
	m["merging.r_value"] = chk.rValue

	res := result{
		Attempted: warm.attempted + plain.attempted + traced.attempted + journalLeg.attempted + chk.attempted,
		Failed:    warm.failed + plain.failed + traced.failed + journalLeg.failed + chk.failed,
		Metrics:   make(map[string]metricValue, len(perLayer)),
	}
	res.Correct = res.Failed == 0
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{m[d.name], d.unit}
	}
	for _, err := range []error{warm.firstErr, plain.firstErr, traced.firstErr, journalLeg.firstErr, chk.firstErr} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: failed operation: %v\n", spec.name, err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans over %d traced and %d untraced operations by one client\n",
		spec.name, len(spans), len(traced.samples), len(plain.samples))
	if o.traceOut != "" {
		if err := writeJSONL(o.traceOut, spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

// pathMetrics splits every completed request of the traced leg along
// its blocking path and fills in the path.* metrics.
func pathMetrics(tree *spanTree, m map[string]float64) {
	var rootDurs []time.Duration
	perRoot := make(map[string][]time.Duration)
	sum := make(map[string]time.Duration)
	var all time.Duration
	for _, r := range tree.roots {
		if r.Abandoned {
			continue
		}
		acc := make(map[string]time.Duration, len(pathLayers))
		tree.blockingPath(r, acc)
		rootDurs = append(rootDurs, r.dur())
		for _, l := range pathLayers {
			perRoot[l] = append(perRoot[l], acc[l])
			sum[l] += acc[l]
			all += acc[l]
		}
	}
	m["path.root_ms_p50"] = percentile(ms(rootDurs), 50)
	for _, l := range pathLayers {
		m["path.layer_sum_ms"] += percentile(ms(perRoot[l]), 50)
		m["path."+l+"_share"] = ratio(float64(sum[l]), float64(all))
	}
}

// residentShareBytes is what the disk engine charges its cache per
// resident share.
const residentShareBytes = 24

// wireSnapshot is a plain copy of wireCounts.
type wireSnapshot struct {
	calls, abandoned, reqBytes, applyCalls, applyOps int64
}

func (w *wireCounts) snapshot() wireSnapshot {
	return wireSnapshot{
		calls: w.calls.Load(), abandoned: w.abandoned.Load(), reqBytes: w.reqBytes.Load(),
		applyCalls: w.applyCalls.Load(), applyOps: w.applyOps.Load(),
	}
}
