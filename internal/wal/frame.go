// Package wal is the CRC frame primitive under every append-only log in
// the tree: the peer-side mutation journal (package journal), the disk
// store's segment files (package store), and the binary wire protocol
// (package transport) all carry their records as these frames, so a torn
// or corrupt frame is detected identically on disk and on the wire. The
// package knows nothing about what a payload means; each user brings its
// own record schema, replay and truncation.
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
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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

// AppendFrame writes one framed payload to w.
func AppendFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("wal: frame payload %d exceeds %d bytes", len(payload), MaxFramePayload)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write(payload)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
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

// ReadFrame reads the next framed payload from r. It returns io.EOF at a
// clean end of input and ErrTornFrame (or ErrBadRecord for a checksum or
// length violation) when the input ends or corrupts mid-frame; in both
// failure cases the reader should stop and treat everything before the
// failed frame as the valid prefix.
func ReadFrame(r io.Reader) ([]byte, error) {
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
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFramePayload {
		return nil, fmt.Errorf("%w: frame length %d", ErrBadRecord, n)
	}
	body := make([]byte, n+4)
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTornFrame
		}
		return nil, fmt.Errorf("wal: frame body: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write(body[:n])
	if crc.Sum32() != binary.LittleEndian.Uint32(body[n:]) {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrBadRecord)
	}
	return body[:n], nil
}

// SyncDir fsyncs a directory so the entry of a file just created in it
// or renamed into it is durable — without it a power loss after a
// temp+rename commit can bring the old file back. Best effort: some
// filesystems reject directory fsync.
func SyncDir(dir string) {
	df, err := os.Open(dir)
	if err != nil {
		return
	}
	df.Sync()
	df.Close()
}
