// Command benchmark is the repository's end-to-end benchmark: it wires a
// real three-server Zerber cluster over the loopback binary wire, drives
// one of four closed-loop workloads against it, checks every answer
// against a plain inverted index, and prints the metrics BENCHMARK.json
// names. README.md in this directory is the glossary.
//
//	go run ./benchmark -seed 1                      # all four workloads, timed
//	go run ./benchmark -seed 1 -trace 1             # per-layer metrics
//	go run ./benchmark -workload exact-mem -seed 7 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd are the metrics every timed run (-trace 0) prints for every
// workload. The operation behind ops_per_s and op_ms_* is the workload's
// own: an exact search on exact-mem, a top-k search on topk-mem, one
// scripted mutation on write-journal, one search-search-mutate session
// on mixed-disk. README.md says why the bounds are as wide as they are.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	scale    string
	repeat   int
	tmpRoot  string
}

// clients is the number of closed-loop client goroutines of a timed run:
// one per processor the scheduler may use.
func clients() int { return runtime.GOMAXPROCS(0) }

// setupsPerRun is how many times a timed run sets its workload up;
// setup_s is their median.
const setupsPerRun = 3

// windows is how many equal windows the measured phase is cut into for
// the median-window throughput: one per second, five at least, so that
// a stall of a second or two (a collection, a segment rollover's fsync)
// spoils a small minority of them.
func windows(measure time.Duration) int {
	return max(5, int(measure/time.Second))
}

// warmup is the untimed lead-in that fills caches and lets lazy set-up
// finish: a fifth of the measured phase, three seconds at most.
func warmup(measure time.Duration) time.Duration {
	w := measure / 5
	if w > 3*time.Second {
		w = 3 * time.Second
	}
	return w
}

// runTimed is one timed run of one workload: several set-ups (the last
// one is kept), warm-up, the measured closed loop, the correctness check.
func runTimed(spec workloadSpec, sc scale, o options) (result, error) {
	var (
		e      *env
		setupS []float64
	)
	for i := 0; i < setupsPerRun; i++ {
		if e != nil {
			e.Close()
			runtime.GC()
		}
		var err error
		if e, err = setUp(spec, sc, o.seed, clients(), o.tmpRoot, nil); err != nil {
			return result{}, err
		}
		setupS = append(setupS, e.setup.Seconds())
	}
	defer e.Close()
	runtime.GC()

	measure := time.Duration(o.seconds * float64(time.Second))
	warm := closedLoop(clients(), warmup(measure), e.doOp)
	ph := closedLoop(clients(), measure, e.doOp)
	chk := e.check()
	rates := windowRates(ph.samples, ph.length, windows(measure))

	lat := ms(ph.latencies())
	res := result{
		Attempted: warm.attempted + ph.attempted + chk.attempted,
		Failed:    warm.failed + ph.failed + chk.failed,
		Metrics: map[string]metricValue{
			"ops_per_s": {median(rates), "1/s"},
			"op_ms_p50": {percentile(lat, 50), "ms"},
			"op_ms_p90": {percentile(lat, 90), "ms"},
			"setup_s":   {median(setupS), "s"},
		},
	}
	res.Correct = res.Failed == 0
	for _, err := range []error{warm.firstErr, ph.firstErr, chk.firstErr} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: failed operation: %v\n", spec.name, err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d operations measured in %v by %d clients (per window: %.0f /s), %d check queries\n",
		spec.name, len(ph.samples), ph.length, clients(), rates, chk.counts.queries)
	return res, nil
}

// printResult writes the metrics by name with their units, then the JSON
// object as the last line.
func printResult(w io.Writer, workload string, defs []metricDef, res result) error {
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not produced", workload, d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is not finite", workload, d.name)
		}
		fmt.Fprintf(w, "%-14s %-40s %14.4f %s\n", workload, d.name, m.Value, m.Unit)
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics produced, %d declared", workload, len(res.Metrics), len(defs))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runOne runs one workload, timed or traced, and prints it.
func runOne(w io.Writer, spec workloadSpec, sc scale, o options) (result, error) {
	var (
		res  result
		err  error
		defs = endToEnd
	)
	if o.trace != 0 {
		defs = perLayer
		res, err = runTraced(spec, sc, o)
	} else {
		res, err = runTimed(spec, sc, o)
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", spec.name, err)
	}
	return res, printResult(w, spec.name, defs, res)
}

// run is main without the exit code.
func run(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all four, one after the other)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for documents, queries and the mutation script")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans to this file as JSON lines")
	fs.StringVar(&o.scale, "scale", "full", "input size: full or tiny")
	fs.IntVar(&o.repeat, "repeat", 0, "run the timed suite this many times and report each metric's spread against its bound")
	fs.StringVar(&o.tmpRoot, "tmp", ".bench_tmp", "directory for journals and segment files, removed afterwards")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	sc, ok := scales[o.scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", o.scale)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	specs := workloads
	if o.workload != "" {
		spec, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (see benchmark/README.md)", o.workload)
		}
		specs = []workloadSpec{spec}
	}
	defer os.Remove(o.tmpRoot) // only succeeds once every run has removed its own directory

	// Runs on different core counts are not comparable: the client count
	// follows GOMAXPROCS, and so does how the corpus is sliced.
	fmt.Fprintf(os.Stderr, "benchmark: seed=%d scale=%s gomaxprocs=%d nproc=%d seconds=%g\n",
		o.seed, sc.name, runtime.GOMAXPROCS(0), runtime.NumCPU(), o.seconds)

	if o.repeat > 0 {
		return repeatSuite(stdout, specs, sc, o)
	}
	incorrect := 0
	for _, spec := range specs {
		res, err := runOne(stdout, spec, sc, o)
		if err != nil {
			return err
		}
		if !res.Correct {
			incorrect++
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workload(s) had failed or wrong operations", incorrect)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
