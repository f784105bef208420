package wal

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// countingReader counts the bytes ReadFrame pulls from its input.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// recycledBuf is the fuzz target's stand-in for a pooled buffer: it grows
// to the largest frame asked for and is never cleaned, so it carries the
// bytes of earlier frames (and 0xEE where none has been read yet).
var recycledBuf []byte

func recycled(size int) []byte {
	if cap(recycledBuf) < size {
		recycledBuf = bytes.Repeat([]byte{0xEE}, size)
	}
	return recycledBuf[:size]
}

// checkLog holds the log half of the primitive to the frame reader on
// data, as FuzzReadFrame documents.
func checkLog(t *testing.T, data []byte) {
	var want [][]byte
	var prefix int64
	for r := bytes.NewReader(data); ; {
		payload, err := ReadFrame(r)
		if err != nil {
			break
		}
		want = append(want, payload)
		prefix += FrameSize(payload)
	}
	var got [][]byte
	if valid, err := Replay(bytes.NewReader(data), collect(t, &got)); err != nil || valid != prefix || !reflect.DeepEqual(got, want) {
		t.Fatalf("replay: valid %d, %d payloads, err %v; the ReadFrame walk accepts %d bytes, %d payloads",
			valid, len(got), err, prefix, len(want))
	}

	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got = nil
	l, valid, err := Open(path, collect(t, &got))
	if err != nil || valid != prefix || l.Size() != int64(len(data)) || !reflect.DeepEqual(got, want) {
		t.Fatalf("open: valid %d, %d payloads, err %v; want %d, %d", valid, len(got), err, prefix, len(want))
	}
	if err := l.Truncate(valid); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if st.Size() != prefix {
		t.Fatalf("truncated to %d bytes, want the %d-byte prefix", st.Size(), prefix)
	}
	got = nil
	l, valid, err = Open(path, collect(t, &got))
	if err != nil || valid != prefix || l.Size() != prefix || !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen: valid %d of %d bytes, %d payloads, err %v; want %d, %d", valid, l.Size(), len(got), err, prefix, len(want))
	}
	l.Close()
}

// FuzzReadFrame throws arbitrary bytes at the frame reader every log
// and the binary wire share. It must never panic; a header claiming
// more than MaxFramePayload must be rejected before a single body byte
// is read; and anything accepted must consume exactly one frame and
// re-encode to the bytes it was read from, through AppendFrame and
// through the in-place form alike (the framing is canonical, so no
// information was invented). The buffer-supplied reader must draw the
// same line: over the same bytes, with a dirty buffer of the size asked
// for, with one too short, and with none, it accepts exactly what
// ReadFrame accepts, returns the same payload having read the same
// number of bytes, asks for a buffer at most once and never for a frame
// over the limit. The same bytes as a log file (checkLog): replay's
// valid prefix is exactly the frames a ReadFrame walk accepts, Open
// reports that prefix, Truncate cuts the file to it, and reopening the
// cut file is clean and replays the same payloads. Run with
// `go test -fuzz=FuzzReadFrame ./internal/wal`.
func FuzzReadFrame(f *testing.F) {
	var intact bytes.Buffer
	for _, p := range []string{"seed payload", "", "second"} {
		if err := AppendFrame(&intact, []byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(intact.Bytes())
	f.Add(append(intact.Bytes(), TornFrame(64)...))
	f.Add(TornFrame(64))
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFramePayload+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLog(t, data)
		r := &countingReader{r: bytes.NewReader(data)}
		payload, err := ReadFrame(r)
		for name, supply := range map[string]func(size int) []byte{
			"dirty": func(size int) []byte { return recycled(size + 3) },
			"short": func(size int) []byte { return recycled(size / 2) },
			"empty": func(int) []byte { return nil },
		} {
			calls := 0
			var supplied []byte
			ri := &countingReader{r: bytes.NewReader(data)}
			got, ierr := ReadFrameInto(ri, func(size int) []byte {
				calls++
				if size > MaxFramePayload+4 {
					t.Fatalf("%s: asked for a %d-byte buffer", name, size)
				}
				supplied = supply(size)
				return supplied
			})
			if (ierr == nil) != (err == nil) || !bytes.Equal(got, payload) || ri.n != r.n {
				t.Fatalf("%s buffer: read %d bytes, payload %x, err %v; ReadFrame read %d bytes, payload %x, err %v",
					name, ri.n, got, ierr, r.n, payload, err)
			}
			if calls > 1 || (ierr == nil && calls != 1) {
				t.Fatalf("%s buffer: asked for %d times (err %v)", name, calls, ierr)
			}
			if name == "dirty" && ierr == nil && &got[:1][0] != &supplied[0] {
				t.Fatalf("a buffer large enough was not used")
			}
		}
		if err != nil {
			if len(data) >= 4 && binary.LittleEndian.Uint32(data) > MaxFramePayload && r.n != 4 {
				t.Fatalf("over-limit header: read %d bytes, want to stop after the 4-byte header", r.n)
			}
			return
		}
		if len(payload) > MaxFramePayload {
			t.Fatalf("accepted a %d-byte payload, limit %d", len(payload), MaxFramePayload)
		}
		if r.n != FrameSize(payload) {
			t.Fatalf("read %d bytes for a %d-byte frame", r.n, FrameSize(payload))
		}
		var re bytes.Buffer
		if err := AppendFrame(&re, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), data[:r.n]) {
			t.Fatalf("read/append not canonical: %x -> %x", data[:r.n], re.Bytes())
		}
		sealed, err := SealFrame(append(BeginFrame(nil), payload...))
		if err != nil || !bytes.Equal(sealed, data[:r.n]) {
			t.Fatalf("read/seal not canonical: %x -> %x, %v", data[:r.n], sealed, err)
		}
	})
}
