package posting

import (
	"math/rand"
	"testing"

	"zerber/internal/field"
	"zerber/internal/shamir"
)

func batchRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func batchXs(n int) []field.Element {
	xs := make([]field.Element, n)
	for i := range xs {
		xs[i] = field.Element(i + 1)
	}
	return xs
}

// batchElems builds s distinct in-range posting elements.
func batchElems(s int, rng *rand.Rand) ([]Element, []GlobalID) {
	elems := make([]Element, s)
	gids := make([]GlobalID, s)
	for i := range elems {
		elems[i] = Element{
			DocID:  rng.Uint32() & MaxDocID,
			TermID: rng.Uint32() & MaxTermID,
			TF:     uint16(rng.Uint32() & MaxTF),
		}
		gids[i] = GlobalID(rng.Uint64())
	}
	return elems, gids
}

// TestEncryptBatchMatchesSequential pins EncryptBatch byte-identical to
// per-element Encrypt under a shared deterministic stream.
func TestEncryptBatchMatchesSequential(t *testing.T) {
	for _, tc := range []struct{ k, n, elems int }{
		{2, 3, 50}, {3, 5, 31}, {1, 2, 9}, {4, 4, 12},
	} {
		elems, gids := batchElems(tc.elems, batchRand(3))
		xs := batchXs(tc.n)
		const group = 7

		seqRng := batchRand(1000 + int64(tc.k))
		want := make([][]EncryptedShare, tc.n)
		for e, el := range elems {
			shares, err := Encrypt(el, gids[e], group, tc.k, xs, seqRng)
			if err != nil {
				t.Fatal(err)
			}
			for i, sh := range shares {
				want[i] = append(want[i], sh)
			}
		}

		sp, err := shamir.NewSplitter(tc.k, xs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncryptBatch(sp, elems, gids, group, batchRand(1000+int64(tc.k)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != tc.n {
			t.Fatalf("k=%d n=%d: %d server rows", tc.k, tc.n, len(got))
		}
		for i := range got {
			for e := range got[i] {
				if got[i][e] != want[i][e] {
					t.Fatalf("k=%d n=%d: server %d element %d: batch %+v, sequential %+v",
						tc.k, tc.n, i, e, got[i][e], want[i][e])
				}
			}
		}
	}
}

// TestEncryptBatchDecrypts: any k of the n per-server rows reconstruct
// every original element.
func TestEncryptBatchDecrypts(t *testing.T) {
	rng := batchRand(9)
	const k, n, s = 2, 4, 25
	elems, gids := batchElems(s, rng)
	xs := batchXs(n)
	sp, err := shamir.NewSplitter(k, xs)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := EncryptBatch(sp, elems, gids, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for e := range elems {
		perm := rng.Perm(n)[:k]
		shares := make([]EncryptedShare, k)
		subXs := make([]field.Element, k)
		for j, i := range perm {
			shares[j] = rows[i][e]
			subXs[j] = xs[i]
			if rows[i][e].GlobalID != gids[e] || rows[i][e].Group != 3 {
				t.Fatalf("element %d server %d: metadata %+v", e, i, rows[i][e])
			}
		}
		got, err := Decrypt(shares, subXs, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != elems[e] {
			t.Fatalf("element %d: decrypted %v, want %v", e, got, elems[e])
		}
	}
}

func TestEncryptBatchValidation(t *testing.T) {
	sp, err := shamir.NewSplitter(2, batchXs(3))
	if err != nil {
		t.Fatal(err)
	}
	elems, gids := batchElems(4, batchRand(1))
	if _, err := EncryptBatch(sp, elems, gids[:3], 1, batchRand(1)); err == nil {
		t.Error("mismatched gids length must be rejected")
	}
	bad := make([]Element, 1)
	bad[0] = Element{DocID: MaxDocID + 1}
	if _, err := EncryptBatch(sp, bad, gids[:1], 1, batchRand(1)); err == nil {
		t.Error("out-of-range element must surface the encode error")
	}
	if err := EncryptBatchInto(sp, elems, gids, 1, batchRand(1),
		make([][]EncryptedShare, 2), 0); err == nil {
		t.Error("wrong destination buffer count must be rejected")
	}
}

// TestEncryptBatchIntoOffset: windows written at an offset must land in
// the right place and leave the rest of the buffers untouched.
func TestEncryptBatchIntoOffset(t *testing.T) {
	rng := batchRand(21)
	const k, n, s = 2, 3, 10
	elems, gids := batchElems(s, rng)
	xs := batchXs(n)
	sp, err := shamir.NewSplitter(k, xs)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([][]EncryptedShare, n)
	for i := range dst {
		dst[i] = make([]EncryptedShare, s+4)
	}
	if err := EncryptBatchInto(sp, elems, gids, 2, rng, dst, 4); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		for e := 0; e < 4; e++ {
			if dst[i][e] != (EncryptedShare{}) {
				t.Fatalf("server %d slot %d clobbered: %+v", i, e, dst[i][e])
			}
		}
	}
	for e := range elems {
		got, err := Decrypt([]EncryptedShare{dst[0][4+e], dst[1][4+e]},
			[]field.Element{xs[0], xs[1]}, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != elems[e] {
			t.Fatalf("offset element %d: decrypted %v, want %v", e, got, elems[e])
		}
	}
}

// bench5kDoc is the paper's §5.1 unit: one 5,000-term document, k=2 of
// n=3 (the evaluation setup).
func bench5kDoc(b *testing.B) ([]Element, []GlobalID, []field.Element) {
	b.Helper()
	elems, gids := batchElems(5000, batchRand(4))
	return elems, gids, batchXs(3)
}

// BenchmarkEncryptBatch: one op = encrypting a 5,000-term document
// through the batched pipeline.
func BenchmarkEncryptBatch(b *testing.B) {
	elems, gids, xs := bench5kDoc(b)
	sp, err := shamir.NewSplitter(2, xs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncryptBatch(sp, elems, gids, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncryptBatchIntoBoundsChecked: an undersized destination row must
// surface as an error, not a panic inside a worker goroutine.
func TestEncryptBatchIntoBoundsChecked(t *testing.T) {
	sp, err := shamir.NewSplitter(2, batchXs(3))
	if err != nil {
		t.Fatal(err)
	}
	elems, gids := batchElems(4, batchRand(2))
	dst := make([][]EncryptedShare, 3)
	for i := range dst {
		dst[i] = make([]EncryptedShare, 4) // no room for offset 2
	}
	if err := EncryptBatchInto(sp, elems, gids, 1, batchRand(2), dst, 2); err == nil {
		t.Error("undersized destination row must be rejected")
	}
}
