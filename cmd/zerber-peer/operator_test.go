package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOperatorFlow runs the operator binaries as processes over
// loopback TCP: three zerber-server processes, zerber-peer -build-table
// (which must meet the r it is given, and refuse an r no table has),
// zerber-peer -addr= twice on one journal, and zerber-search -v after
// each run. The search, one quoted argument with punctuation that only
// a query tokenized like the documents matches, must find the document,
// and the rerun must leave the element count the search decrypts
// unchanged: it sent no second generation of shares.
func TestOperatorFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the cmd/ binaries")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go tool to build the binaries with: %v", err)
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator),
		"zerber/cmd/zerber-server", "zerber/cmd/zerber-peer", "zerber/cmd/zerber-search")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const key = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
	var addrs []string
	for x := 1; x <= 3; x++ {
		addrs = append(addrs, startServer(t, filepath.Join(bin, "zerber-server"),
			"-addr", "127.0.0.1:0", "-x", strconv.Itoa(x), "-key", key, "-groups", "alice:1,bob:2"))
	}

	work := t.TempDir()
	docs := filepath.Join(work, "docs")
	if err := os.Mkdir(docs, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{
		"memo1.txt": "Martha IMClone merger, quarterly budget.",
		"memo2.txt": "IMClone layoff; chemical budget.",
		"memo3.md":  "Quarterly merger meeting notes.",
	} {
		if err := os.WriteFile(filepath.Join(docs, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	table := filepath.Join(work, "table.json")
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	summary := run("zerber-peer", "-build-table", "-r", "2", "-docs", docs, "-table", table)
	var built struct {
		M      int     `json:"m"`
		RValue float64 `json:"r_value"`
	}
	if data, err := os.ReadFile(table); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &built); err != nil {
		t.Fatal(err)
	}
	if built.RValue > 2 || !strings.Contains(summary, "for r=2:") ||
		!strings.Contains(summary, "realized r="+strconv.FormatFloat(built.RValue, 'g', 4, 64)) {
		t.Fatalf("-build-table -r 2 wrote M=%d r=%v:\n%s", built.M, built.RValue, summary)
	}
	unreachable := filepath.Join(work, "unreachable.json")
	refuse := exec.Command(filepath.Join(bin, "zerber-peer"), "-build-table", "-r", "0.5", "-docs", docs, "-table", unreachable)
	if out, err := refuse.CombinedOutput(); err == nil {
		t.Fatalf("-build-table -r 0.5 exited 0:\n%s", out)
	}
	if _, err := os.Stat(unreachable); !os.IsNotExist(err) {
		t.Fatalf("-build-table -r 0.5 left %s behind: %v", unreachable, err)
	}

	owner := []string{"-servers", strings.Join(addrs, ","), "-k", "2", "-key", key,
		"-user", "alice", "-group", "1", "-table", table, "-docs", docs}
	noJournal := exec.Command(filepath.Join(bin, "zerber-peer"), append(owner, "-addr=", "-journal=")...)
	noJournal.Dir = work
	if out, err := noJournal.CombinedOutput(); err == nil || !strings.Contains(string(out), "-journal") {
		t.Fatalf("zerber-peer accepted an empty -journal: %v\n%s", err, out)
	}

	decrypted := regexp.MustCompile(`(\d+) elements decrypted`)
	search := func() (out string, elements int) {
		t.Helper()
		out = run("zerber-search", "-servers", strings.Join(addrs, ","), "-k", "2", "-key", key,
			"-user", "alice", "-table", table, "-v", "Martha's budget,")
		if !strings.Contains(out, "memo1.txt") {
			t.Fatalf("search did not find memo1.txt:\n%s", out)
		}
		m := decrypted.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no element count in the -v output:\n%s", out)
		}
		elements, _ = strconv.Atoi(m[1])
		// Every server holds every element: none is left under k.
		if !strings.Contains(out, ", 0 under-replicated skipped,") {
			t.Fatalf("the -v output does not report 0 under-replicated elements:\n%s", out)
		}
		return out, elements
	}
	journal := append(owner, "-addr=", "-journal", filepath.Join(work, "jnl"))
	run("zerber-peer", journal...)
	_, first := search()
	run("zerber-peer", journal...)
	out, again := search()
	if first == 0 || again != first {
		t.Fatalf("search decrypted %d elements after the first run and %d after the rerun:\n%s", first, again, out)
	}
}

// startServer starts a zerber-server process, kills it when the test
// ends, and returns the address it logs that it bound.
func startServer(t *testing.T, path string, args ...string) string {
	t.Helper()
	log := &addrLog{addr: make(chan string, 1)}
	cmd := exec.Command(path, args...)
	cmd.Dir = t.TempDir()
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill() // fails only if it already exited, which Wait reports
		_ = cmd.Wait()         // the kill's own "signal: killed"
	})
	select {
	case addr := <-log.addr:
		return addr
	case <-time.After(10 * time.Second):
		t.Fatalf("zerber-server logged no bound address:\n%s", log.String())
		return ""
	}
}

var listening = regexp.MustCompile(`listening on (\S+) `)

// addrLog is a server's stderr: it hands the address of the first
// "listening on" line to addr and keeps everything for diagnostics.
type addrLog struct {
	addr chan string // buffered 1: one send, never waited on

	mu   sync.Mutex
	buf  bytes.Buffer
	sent bool
}

func (l *addrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if l.sent {
		return len(p), nil
	}
	if m := listening.FindSubmatch(l.buf.Bytes()); m != nil {
		l.addr <- string(m[1])
		l.sent = true
	}
	return len(p), nil
}

func (l *addrLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}
