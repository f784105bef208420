// Package wal is the one log primitive in the tree. Its CRC frame
// carries every record: the peer-side mutation journal (package
// journal), the disk store's log (package store), and the
// binary wire protocol (package transport), so a torn or corrupt frame is
// detected identically on disk and on the wire. Its log file (log.go) is
// the rest of both on-disk logs: one replay loop, one torn-tail
// truncation, one append handle and one atomic whole-file rewrite. The
// package knows nothing about what a payload means; a user brings only
// its record schema and the fold that applies a record.
//
// Frame layout:
//
//	offset    size  field
//	0         4     payload length L (little endian)
//	4         L     payload
//	4+L       4     CRC-32 (IEEE) over bytes [0, 4+L)
//
// The checksum covers the length header, so a torn write inside the
// header is detected like any other corruption instead of sending the
// reader off by a garbage length.
//
// There is one format and one set of checks (the MaxFramePayload bound
// on both sides, the checksum on read), reached two ways each. A writer
// hands AppendFrame a finished payload, or builds the frame where it
// will be sent from: BeginFrame reserves the length word in a buffer,
// the writer appends its payload, SealFrame fills the length in and
// appends the checksum — byte for byte what AppendFrame writes, without
// a second copy of the payload. A reader lets ReadFrame allocate the
// payload, or gives ReadFrameInto a function that supplies the buffer
// once the length is known and has passed the bound.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFramePayload bounds one frame's payload. A length above it marks
// the frame corrupt; without the bound, a damaged header could demand a
// multi-gigabyte read before the checksum ever gets a chance to fail.
const MaxFramePayload = 64 << 20

// frameOverhead is the per-frame cost beyond the payload.
const frameOverhead = 8

// Errors a reader stops at; everything before the failed frame is the
// valid prefix.
var (
	// ErrTornFrame reports a frame cut short by a crash mid-write;
	// readers treat it like EOF at the last intact frame.
	ErrTornFrame = errors.New("wal: torn frame")
	// ErrBadRecord reports a frame whose length exceeds MaxFramePayload
	// or whose checksum does not match.
	ErrBadRecord = errors.New("wal: corrupt record")
)

// checkPayloadLen is the writer-side bound of both ways to build a frame.
func checkPayloadLen(n int) error {
	if n > MaxFramePayload {
		return fmt.Errorf("wal: frame payload %d exceeds %d bytes", n, MaxFramePayload)
	}
	return nil
}

// AppendFrame writes one framed payload to w.
func AppendFrame(w io.Writer, payload []byte) error {
	if err := checkPayloadLen(len(payload)); err != nil {
		return err
	}
	var hdr, sum [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(sum[:], crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wal: frame payload: %w", err)
	}
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("wal: frame checksum: %w", err)
	}
	return nil
}

// BeginFrame starts a frame in place in buf, whose contents are
// discarded: it reserves the length word. The caller appends the payload
// to the result and passes that to SealFrame.
func BeginFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// SealFrame finishes a frame begun by BeginFrame (everything after the
// length word is the payload) by filling in the length and appending the
// checksum: the result is exactly what AppendFrame writes for that
// payload. One above MaxFramePayload is refused, frame returned as it came.
func SealFrame(frame []byte) ([]byte, error) {
	if err := checkPayloadLen(len(frame) - 4); err != nil {
		return frame, err
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame)), nil
}

// FrameSize returns the on-disk size of a frame carrying len(payload)
// bytes.
func FrameSize(payload []byte) int64 { return int64(len(payload)) + frameOverhead }

// TornFrame returns the on-disk image of a frame cut short by a crash
// mid-write: a valid length header claiming n payload bytes followed by
// only half of them and no checksum. Appending it to a log models the
// kill-mid-append shape; ReadFrame reports it as ErrTornFrame. Test and
// simulator helper.
func TornFrame(n int) []byte {
	if n < 2 {
		n = 2
	}
	buf := make([]byte, 4+n/2)
	binary.LittleEndian.PutUint32(buf[:4], uint32(n))
	for i := 4; i < len(buf); i++ {
		buf[i] = 0x5a
	}
	return buf
}

// ReadFrame reads the next framed payload from r into a buffer of its
// own. It returns io.EOF at a clean end of input and ErrTornFrame (or
// ErrBadRecord for a checksum or length violation) when the input ends
// or corrupts mid-frame; in both failure cases the reader should stop
// and treat everything before the failed frame as the valid prefix.
func ReadFrame(r io.Reader) ([]byte, error) { return ReadFrameInto(r, nil) }

// ReadFrameInto is ReadFrame reading into a buffer the caller supplies:
// once the length word has passed the MaxFramePayload bound, buf is
// called, at most once, with the size the rest of the frame needs, and
// the payload returned aliases what buf returned. A dirty buffer is fine
// (every byte returned was read from r, under the checksum); one shorter
// than asked for, or a nil buf, and a fresh one is allocated instead. The
// buffer stays the caller's, to recycle after the payload or on error.
func ReadFrameInto(r io.Reader, buf func(size int) []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTornFrame
		}
		return nil, fmt.Errorf("wal: frame header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > MaxFramePayload {
		return nil, fmt.Errorf("%w: frame length %d", ErrBadRecord, n)
	}
	var body []byte
	if buf != nil {
		body = buf(n + 4)
	}
	if len(body) < n+4 {
		body = make([]byte, n+4)
	}
	body = body[:n+4]
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTornFrame
		}
		return nil, fmt.Errorf("wal: frame body: %w", err)
	}
	if crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, body[:n]) != binary.LittleEndian.Uint32(body[n:]) {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrBadRecord)
	}
	return body[:n], nil
}
