package wal

import (
	"bytes"
	"encoding/binary"
	"io"
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

// FuzzReadFrame throws arbitrary bytes at the frame reader every log
// and the binary wire share. It must never panic; a header claiming
// more than MaxFramePayload must be rejected before a single body byte
// is read; and anything accepted must consume exactly one frame and
// re-encode to the bytes it was read from (the framing is canonical, so
// no information was invented). Run with
// `go test -fuzz=FuzzReadFrame ./internal/wal`.
func FuzzReadFrame(f *testing.F) {
	var intact bytes.Buffer
	if err := AppendFrame(&intact, []byte("seed payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(intact.Bytes())
	f.Add(TornFrame(64))
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFramePayload+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &countingReader{r: bytes.NewReader(data)}
		payload, err := ReadFrame(r)
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
	})
}
