package transport

import (
	"io"
	"math/bits"
	"sync"

	"zerber/internal/wal"
)

// frameBuf is a recycled buffer holding one wire frame: both ends of the
// binary protocol build the frames they send, and read the frames they
// receive, in these instead of allocating (and zeroing) one per message.
//
// A frameBuf has one owner at a time, who releases it exactly once or
// leaves it to the garbage collector: dropping one is always safe,
// releasing one twice or touching it after release never is. Whoever
// builds or reads a frame owns it until it sends the pointer on a
// channel; the receiver owns it from then on. Only b[:len(b)] is ever
// written to a socket or decoded — what an earlier message left beyond
// is never looked at — and decoders copy what they return.
type frameBuf struct {
	b []byte
}

// Size classes are the powers of two from 1 KiB (a top-k page is a few)
// to 4 MiB (a bulk Apply); anything larger is allocated for the one
// message and dropped.
const (
	frameClassMinBits = 10
	frameClassMaxBits = 22
)

var framePools [frameClassMaxBits - frameClassMinBits + 1]sync.Pool

// getFrameBuf returns a buffer with room for size bytes, owned by the
// caller. Its length and contents are whatever its last user left.
func getFrameBuf(size int) *frameBuf {
	class := max(bits.Len(uint(max(size, 1)-1)), frameClassMinBits)
	if class > frameClassMaxBits {
		return &frameBuf{b: make([]byte, 0, size)}
	}
	if fb, _ := framePools[class-frameClassMinBits].Get().(*frameBuf); fb != nil {
		return fb
	}
	return &frameBuf{b: make([]byte, 0, 1<<class)}
}

// release recycles the buffer, filed under the largest class its
// capacity serves (it may have grown while it was filled).
func (fb *frameBuf) release() {
	if class := bits.Len(uint(cap(fb.b))) - 1; class >= frameClassMinBits && cap(fb.b) <= 1<<frameClassMaxBits {
		framePools[class-frameClassMinBits].Put(fb)
	}
}

// buildFrame builds one wire frame in place: payload appends a message
// of size bytes behind the reserved length word and the frame is sealed
// around it, so the message is written once, where it is sent from. A
// message above wal.MaxFramePayload is refused.
func buildFrame(size int, payload func(dst []byte) []byte) (*frameBuf, error) {
	fb := getFrameBuf(size + 8) // length word and checksum
	var err error
	if fb.b, err = wal.SealFrame(payload(wal.BeginFrame(fb.b))); err != nil {
		fb.release()
		return nil, err
	}
	return fb, nil
}

// readFrame reads one frame under wal's checks into a pooled buffer the
// caller then owns, holding exactly the frame's payload.
func readFrame(r io.Reader) (*frameBuf, error) {
	var fb *frameBuf
	payload, err := wal.ReadFrameInto(r, func(size int) []byte {
		fb = getFrameBuf(size)
		return fb.b[:size]
	})
	if err != nil {
		if fb != nil {
			fb.release()
		}
		return nil, err
	}
	fb.b = payload
	return fb, nil
}
