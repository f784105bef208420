// Command zerber-benchjson converts `go test -bench -benchmem` output on
// stdin into a schema-versioned JSON artifact on stdout:
//
//	{
//	  "schema": "zerber-bench/v1",
//	  "meta": {"commit": "abc1234", "scale": "benchtime-0.5s", ...},
//	  "results": {
//	    "BenchmarkEncryptBatch": {"ns_per_op": 184200, "bytes_per_op": 524728, "allocs_per_op": 7},
//	    ...
//	  }
//	}
//
// The meta block is the provenance needed to read two artifacts side
// by side: commit SHA, scale, Go version, GOMAXPROCS. -commit and
// -scale stamp the first two; benchmark names have their -GOMAXPROCS
// suffix stripped. It backs `make benchjson`, which records the
// indexing-pipeline benchmarks as BENCH_index.json so the performance
// trajectory of the write path is tracked alongside the code.
// Non-benchmark lines are ignored; benchmarks that appear multiple
// times (e.g. -count > 1) keep the last measurement.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// schema identifies the artifact format. A format change is a new
// version string, never a silent reinterpretation.
const schema = "zerber-bench/v1"

// meta stamps the artifact with its provenance.
type meta struct {
	Commit     string `json:"commit"`
	Scale      string `json:"scale"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// measurement is one benchmark result row. Extra holds custom metrics
// reported through b.ReportMetric (e.g. the migration benchmark's
// lists/sec), keyed by their unit string.
type measurement struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// parseLine extracts a measurement from one `go test -bench` output
// line, or reports ok=false for any other line. The format is
//
//	BenchmarkName-8   	     100	  11111 ns/op	  2048 B/op	   12 allocs/op
//
// with B/op and allocs/op present only under -benchmem.
func parseLine(line string) (name string, m measurement, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", measurement{}, false
	}
	name = fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	found := false
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			m.NsPerOp, found = v, true
		case "B/op":
			m.BytesPerOp = v
		case "allocs/op":
			m.AllocsPerOp = v
		default:
			// Custom b.ReportMetric units ("lists/sec", ...); the bare
			// iteration count has no unit and is skipped.
			if strings.Contains(fields[i+1], "/") {
				if m.Extra == nil {
					m.Extra = make(map[string]float64)
				}
				m.Extra[fields[i+1]] = v
			}
		}
	}
	return name, m, found
}

func main() {
	var (
		commit = flag.String("commit", "", "commit SHA recorded in the artifact meta")
		scale  = flag.String("scale", "bench", "scale label recorded in the artifact meta (e.g. benchtime-0.5s)")
	)
	flag.Parse()

	results := make(map[string]measurement)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if name, m, ok := parseLine(sc.Text()); ok {
			results[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "zerber-benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "zerber-benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *commit == "" {
		*commit = "unknown"
	}
	metaJSON, err := json.Marshal(meta{*commit, *scale, runtime.Version(), runtime.GOMAXPROCS(0)})
	if err != nil {
		fmt.Fprintf(os.Stderr, "zerber-benchjson: %v\n", err)
		os.Exit(1)
	}
	// Deterministic key order for committed artifacts.
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("{\n")
	fmt.Fprintf(&sb, "  \"schema\": %q,\n", schema)
	fmt.Fprintf(&sb, "  \"meta\": %s,\n", metaJSON)
	sb.WriteString("  \"results\": {\n")
	for i, n := range names {
		row, err := json.Marshal(results[n])
		if err != nil {
			fmt.Fprintf(os.Stderr, "zerber-benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(&sb, "    %q: %s", n, row)
		if i < len(names)-1 {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("  }\n}\n")
	os.Stdout.WriteString(sb.String())
}
