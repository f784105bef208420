package shamir

import (
	"errors"
	"testing"

	"zerber/internal/field"
)

func TestNewSplitterValidation(t *testing.T) {
	if _, err := NewSplitter(4, xsUpTo(3)); !errors.Is(err, ErrBadParams) {
		t.Errorf("k > n: %v", err)
	}
	if _, err := NewSplitter(0, xsUpTo(3)); !errors.Is(err, ErrBadParams) {
		t.Errorf("k = 0: %v", err)
	}
	if _, err := NewSplitter(2, []field.Element{1, 0, 3}); !errors.Is(err, ErrZeroX) {
		t.Errorf("zero x: %v", err)
	}
	if _, err := NewSplitter(2, []field.Element{1, 2, 1}); !errors.Is(err, ErrDuplicateX) {
		t.Errorf("duplicate x: %v", err)
	}
	sp, err := NewSplitter(3, xsUpTo(5))
	if err != nil {
		t.Fatal(err)
	}
	if sp.K() != 3 || sp.N() != 5 {
		t.Errorf("K=%d N=%d, want 3/5", sp.K(), sp.N())
	}
	xs := sp.Xs()
	xs[0] = 99 // must be a copy
	if sp.Xs()[0] == 99 {
		t.Error("Xs returned the internal slice")
	}
}

// TestSplitBatchMatchesSequential is the core equivalence pin: under two
// identical deterministic streams, SplitBatch output must be
// byte-identical to one Split call per secret.
func TestSplitBatchMatchesSequential(t *testing.T) {
	for _, tc := range []struct{ k, n, elems int }{
		{1, 1, 7}, {1, 3, 5}, {2, 3, 64}, {3, 5, 33}, {5, 5, 10}, {4, 10, 129}, {2, 3, 0},
	} {
		gen := detRand(77)
		secrets := make([]field.Element, tc.elems)
		for i := range secrets {
			secrets[i] = field.New(gen.Uint64())
		}

		seqRng := detRand(100 + int64(tc.k*tc.n))
		batchRng := detRand(100 + int64(tc.k*tc.n))

		want := make([]field.Element, tc.n*tc.elems) // server-major
		for e, secret := range secrets {
			shares, err := Split(secret, tc.k, xsUpTo(tc.n), seqRng)
			if err != nil {
				t.Fatal(err)
			}
			for i, sh := range shares {
				want[i*tc.elems+e] = sh.Y
			}
		}

		sp, err := NewSplitter(tc.k, xsUpTo(tc.n))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]field.Element, tc.n*tc.elems)
		if err := sp.SplitBatch(secrets, got, batchRng); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d n=%d: share %d differs: batch %d, sequential %d",
					tc.k, tc.n, i, got[i], want[i])
			}
		}
	}
}

// TestSplitBatchReconstructs is the randomized property test: any k of
// the n batch-produced shares must reconstruct the original secret.
func TestSplitBatchReconstructs(t *testing.T) {
	rng := detRand(5)
	const k, n, elems = 3, 6, 40
	xs := xsUpTo(n)
	sp, err := NewSplitter(k, xs)
	if err != nil {
		t.Fatal(err)
	}
	secrets := make([]field.Element, elems)
	for i := range secrets {
		secrets[i] = field.New(rng.Uint64())
	}
	dst := make([]field.Element, n*elems)
	if err := sp.SplitBatch(secrets, dst, rng); err != nil {
		t.Fatal(err)
	}
	for e, secret := range secrets {
		// A random k-subset of servers per element.
		perm := rng.Perm(n)[:k]
		shares := make([]Share, k)
		for j, i := range perm {
			shares[j] = Share{X: xs[i], Y: dst[i*elems+e]}
		}
		got, err := Reconstruct(shares, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != secret {
			t.Fatalf("element %d: reconstructed %d from servers %v, want %d",
				e, got, perm, secret)
		}
	}
}

func TestSplitBatchDstSizeChecked(t *testing.T) {
	sp, err := NewSplitter(2, xsUpTo(3))
	if err != nil {
		t.Fatal(err)
	}
	secrets := make([]field.Element, 4)
	if err := sp.SplitBatch(secrets, make([]field.Element, 11), detRand(1)); err == nil {
		t.Error("undersized dst must be rejected")
	}
	if err := sp.SplitBatch(secrets, make([]field.Element, 13), detRand(1)); err == nil {
		t.Error("oversized dst must be rejected")
	}
}

// TestSplitBatchKEquals1 pins the degenerate threshold: with k=1 every
// share is the secret itself and no randomness is consumed.
func TestSplitBatchKEquals1(t *testing.T) {
	sp, err := NewSplitter(1, xsUpTo(3))
	if err != nil {
		t.Fatal(err)
	}
	secrets := []field.Element{7, 8, 9}
	dst := make([]field.Element, 9)
	// An empty reader proves no entropy is drawn.
	if err := sp.SplitBatch(secrets, dst, emptyReader{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for e, secret := range secrets {
			if dst[i*3+e] != secret {
				t.Fatalf("k=1 share [%d,%d] = %d, want %d", i, e, dst[i*3+e], secret)
			}
		}
	}
}

type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) {
	return 0, errors.New("no entropy available")
}

// TestValidateXsScanAndMapAgree drives both duplicate-detection
// implementations (quadratic scan at or below the threshold, map above
// it) through the same cases.
func TestValidateXsScanAndMapAgree(t *testing.T) {
	for _, n := range []int{scanThreshold, scanThreshold + 1, 2 * scanThreshold} {
		if err := validateXs(xsUpTo(n)); err != nil {
			t.Errorf("n=%d distinct: %v", n, err)
		}
		dup := xsUpTo(n)
		dup[n-1] = dup[0]
		if err := validateXs(dup); !errors.Is(err, ErrDuplicateX) {
			t.Errorf("n=%d duplicate: %v", n, err)
		}
		zero := xsUpTo(n)
		zero[n/2] = 0
		if err := validateXs(zero); !errors.Is(err, ErrZeroX) {
			t.Errorf("n=%d zero: %v", n, err)
		}
	}
}

// TestCheckSharesScanAndMapAgree mirrors the validateXs boundary test
// for the reconstruction-side validator.
func TestCheckSharesScanAndMapAgree(t *testing.T) {
	build := func(n int) []Share {
		shares := make([]Share, n)
		for i := range shares {
			shares[i] = Share{X: field.Element(i + 1), Y: field.Element(i)}
		}
		return shares
	}
	for _, k := range []int{scanThreshold, scanThreshold + 1, 2 * scanThreshold} {
		if err := checkShares(build(k), k); err != nil {
			t.Errorf("k=%d distinct: %v", k, err)
		}
		dup := build(k)
		dup[k-1].X = dup[0].X
		if err := checkShares(dup, k); !errors.Is(err, ErrDuplicateX) {
			t.Errorf("k=%d duplicate: %v", k, err)
		}
		zero := build(k)
		zero[k/2].X = 0
		if err := checkShares(zero, k); !errors.Is(err, ErrZeroX) {
			t.Errorf("k=%d zero: %v", k, err)
		}
	}
	if err := checkShares(build(2), 3); !errors.Is(err, ErrTooFewShares) {
		t.Error("too few shares must be rejected")
	}
}

// benchSecrets is a 5,000-element secret vector, the paper's §5.1
// document-splitting unit.
func benchSecrets() []field.Element {
	rng := detRand(99)
	secrets := make([]field.Element, 5000)
	for i := range secrets {
		secrets[i] = field.New(rng.Uint64())
	}
	return secrets
}

// BenchmarkSplitBatch measures the batched pipeline: one op = sharing
// 5,000 secrets 3-of-5 through a prepared Splitter with DRBG randomness.
func BenchmarkSplitBatch(b *testing.B) {
	secrets := benchSecrets()
	sp, err := NewSplitter(3, xsUpTo(5))
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]field.Element, sp.N()*len(secrets))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sp.SplitBatch(secrets, dst, nil); err != nil {
			b.Fatal(err)
		}
	}
}
