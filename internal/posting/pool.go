package posting

import (
	"math/bits"
	"sync"
	"unsafe"

	"zerber/internal/field"
)

// The share pool is the one recycled memory of the read path, from a
// store's scan to a client's join: every result slice a store read, a
// server lookup or a wire decode returns is drawn from it, and the
// terminal owner of a slice (the binary server once it has framed it,
// the client once it has joined it) gives it back. What makes a slice
// safe to give back is that its holder owns it alone, which
// transport.API and store.Store promise of every result; where it came
// from does not matter, because there is one pool.
//
// Size classes are the powers of two from 16 shares (384 B) to 1 Mi
// shares (24 MiB, a list far longer than any a search fetches); a slice
// outside them is allocated for its one use and dropped on release.
const (
	shareClassMinBits = 4
	shareClassMaxBits = 20
)

// sharePools holds, per class, the first element of each pooled slice:
// a pointer converts to an interface without allocating, which a slice
// header does not, so giving a slice back costs no allocation. A class-c
// pool holds only slices of capacity at least 1<<c.
var sharePools [shareClassMaxBits - shareClassMinBits + 1]sync.Pool

// poisonShare is what a released slice holds under the race detector
// (see raceEnabled): its Y is above the field modulus, which no real
// share's is, and its global ID is the same in every poisoned cell, so
// a stale reader's join sees one element delivered over and over.
var poisonShare = EncryptedShare{GlobalID: ^GlobalID(0), Group: ^uint32(0), Y: field.Element(^uint64(0))}

// GetShares returns a slice of length n for the caller to own and fill;
// its contents are unspecified. n = 0 returns an empty slice, not nil.
func GetShares(n int) []EncryptedShare {
	if n <= 0 {
		return []EncryptedShare{}
	}
	class := max(bits.Len(uint(n-1)), shareClassMinBits)
	if class > shareClassMaxBits {
		return make([]EncryptedShare, n)
	}
	if p, _ := sharePools[class-shareClassMinBits].Get().(*EncryptedShare); p != nil {
		return unsafe.Slice(p, 1<<class)[:n]
	}
	return make([]EncryptedShare, n, 1<<class)
}

// PutShares gives s back to the pool, filed under the largest class its
// capacity serves; it does not allocate. The caller must own s alone and
// must not touch it, or any slice sharing its memory, afterwards. nil is
// a no-op.
func PutShares(s []EncryptedShare) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	if raceEnabled {
		for i := range s {
			s[i] = poisonShare
		}
	}
	if class := bits.Len(uint(len(s))) - 1; class >= shareClassMinBits && class <= shareClassMaxBits {
		sharePools[class-shareClassMinBits].Put(&s[0])
	}
}
