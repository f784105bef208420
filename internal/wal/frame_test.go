package wal

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 10_000),
		[]byte{0},
	}
	for _, p := range payloads {
		if err := AppendFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameTornTail(t *testing.T) {
	var buf bytes.Buffer
	if err := AppendFrame(&buf, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()
	if err := AppendFrame(&buf, []byte("this frame will be cut short")); err != nil {
		t.Fatal(err)
	}
	// Cut at every possible point inside the second frame: header, body,
	// and checksum. The first frame must always survive. (A cut exactly
	// at the frame boundary is a clean EOF, not a torn frame.)
	for cut := whole + 1; cut < buf.Len(); cut++ {
		r := bytes.NewReader(buf.Bytes()[:cut])
		got, err := ReadFrame(r)
		if err != nil || string(got) != "intact" {
			t.Fatalf("cut %d: first frame: %q, %v", cut, got, err)
		}
		if _, err := ReadFrame(r); !errors.Is(err, ErrTornFrame) {
			t.Fatalf("cut %d: got %v, want ErrTornFrame", cut, err)
		}
	}
}

func TestFrameBitFlipDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := AppendFrame(&buf, bytes.Repeat([]byte{0x5A}, 100)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, pos := range []int{0, 2, 4, 50, len(raw) - 1} {
		flipped := append([]byte(nil), raw...)
		flipped[pos] ^= 0x01
		_, err := ReadFrame(bytes.NewReader(flipped))
		if err == nil {
			t.Fatalf("bit flip at %d not detected", pos)
		}
	}
}

func TestFrameLengthBound(t *testing.T) {
	// A corrupt header claiming an absurd length must fail as a bad
	// record, not attempt the read.
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("got %v, want ErrBadRecord", err)
	}
	if err := AppendFrame(io.Discard, make([]byte, MaxFramePayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	// The in-place form refuses the same bound and leaves the buffer as
	// it came; one byte less is sealed.
	buf := make([]byte, 4+MaxFramePayload+1)
	if got, err := SealFrame(buf); err == nil || len(got) != len(buf) {
		t.Fatalf("oversized payload sealed (len %d -> %d, err %v)", len(buf), len(got), err)
	}
	if got, err := SealFrame(buf[:len(buf)-1]); err != nil || len(got) != len(buf)+3 {
		t.Fatalf("payload of exactly the limit: len %d, %v", len(got), err)
	}
}

// TestSealFrameMatchesAppendFrame is the one-format property: a frame
// built in place, in a dirty buffer of any capacity, is byte for byte
// what AppendFrame writes for the same payload, and reads back through
// both readers.
func TestSealFrameMatchesAppendFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		payload := make([]byte, rng.Intn(3000))
		rng.Read(payload)
		var want bytes.Buffer
		if err := AppendFrame(&want, payload); err != nil {
			t.Fatal(err)
		}
		// Sometimes too small to hold the frame, sometimes far too large.
		dirty := bytes.Repeat([]byte{0xEE}, rng.Intn(2*len(payload)+16))
		frame, err := SealFrame(append(BeginFrame(dirty), payload...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, want.Bytes()) || int64(len(frame)) != FrameSize(payload) {
			t.Fatalf("trial %d: sealed %x, AppendFrame wrote %x", trial, frame, want.Bytes())
		}
		got, err := ReadFrame(bytes.NewReader(frame))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("trial %d: ReadFrame of a sealed frame: %v", trial, err)
		}
		into := bytes.Repeat([]byte{0xEE}, len(payload)+4)
		got, err = ReadFrameInto(bytes.NewReader(frame), func(int) []byte { return into })
		if err != nil || !bytes.Equal(got, payload) || (len(got) > 0 && &got[0] != &into[0]) {
			t.Fatalf("trial %d: ReadFrameInto of a sealed frame: %v", trial, err)
		}
	}
}
