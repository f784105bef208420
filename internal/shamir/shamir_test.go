package shamir

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"zerber/internal/field"
)

func detRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func xsUpTo(n int) []field.Element {
	xs := make([]field.Element, n)
	for i := range xs {
		xs[i] = field.Element(i + 1)
	}
	return xs
}

func TestSplitReconstructRoundTrip(t *testing.T) {
	rng := detRand(1)
	for _, tc := range []struct{ k, n int }{
		{1, 1}, {1, 3}, {2, 3}, {2, 5}, {3, 5}, {5, 5}, {4, 10},
	} {
		secret := field.New(rng.Uint64())
		shares, err := Split(secret, tc.k, xsUpTo(tc.n), rng)
		if err != nil {
			t.Fatalf("k=%d n=%d: %v", tc.k, tc.n, err)
		}
		if len(shares) != tc.n {
			t.Fatalf("k=%d n=%d: got %d shares", tc.k, tc.n, len(shares))
		}
		got, err := Reconstruct(shares, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if got != secret {
			t.Fatalf("k=%d n=%d: reconstructed %d, want %d", tc.k, tc.n, got, secret)
		}
	}
}

func TestReconstructAnyKSubset(t *testing.T) {
	rng := detRand(2)
	secret := field.New(rng.Uint64())
	k, n := 3, 6
	shares, err := Split(secret, k, xsUpTo(n), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every k-subset of the n shares must reconstruct the same secret.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				sub := []Share{shares[a], shares[b], shares[c]}
				got, err := Reconstruct(sub, k)
				if err != nil {
					t.Fatal(err)
				}
				if got != secret {
					t.Fatalf("subset (%d,%d,%d) reconstructed %d, want %d", a, b, c, got, secret)
				}
			}
		}
	}
}

func TestGaussianMatchesLagrange(t *testing.T) {
	rng := detRand(3)
	for i := 0; i < 100; i++ {
		k := 1 + rng.Intn(6)
		n := k + rng.Intn(4)
		secret := field.New(rng.Uint64())
		shares, err := Split(secret, k, xsUpTo(n), rng)
		if err != nil {
			t.Fatal(err)
		}
		lag, err := Reconstruct(shares, k)
		if err != nil {
			t.Fatal(err)
		}
		gau, err := ReconstructGaussian(shares, k)
		if err != nil {
			t.Fatal(err)
		}
		if lag != gau || lag != secret {
			t.Fatalf("k=%d: lagrange=%d gaussian=%d want=%d", k, lag, gau, secret)
		}
	}
}

func TestSplitRandomized(t *testing.T) {
	// Sharing the same secret twice must produce different shares
	// (random polynomial), otherwise equal plaintexts would be linkable
	// on a compromised server (paper §5.2).
	rng := detRand(4)
	secret := field.Element(42)
	s1, err := Split(secret, 2, xsUpTo(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Split(secret, 2, xsUpTo(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range s1 {
		if s1[i] != s2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("two sharings of the same secret produced identical shares")
	}
}

func TestKMinus1SharesPerfectSecrecy(t *testing.T) {
	// Information-theoretic check: with k=2, a single share (x1, y1) is
	// consistent with EVERY possible secret (for each candidate secret s
	// there is exactly one line through (0,s) and (x1,y1)). We verify the
	// consistency-witness construction for many candidate secrets.
	rng := detRand(5)
	secret := field.New(rng.Uint64())
	shares, err := Split(secret, 2, xsUpTo(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	observed := shares[0]
	for i := 0; i < 100; i++ {
		candidate := field.New(rng.Uint64())
		// slope = (y1 - candidate) / x1; the polynomial candidate + slope*x
		// passes through the observed share, so the share cannot rule the
		// candidate out.
		slope := field.Div(field.Sub(observed.Y, candidate), observed.X)
		poly := field.Poly{candidate, slope}
		if poly.Eval(observed.X) != observed.Y {
			t.Fatalf("witness polynomial for candidate %d does not pass through the share", candidate)
		}
	}
}

func TestSplitParamValidation(t *testing.T) {
	rng := detRand(6)
	if _, err := Split(1, 0, xsUpTo(3), rng); !errors.Is(err, ErrBadParams) {
		t.Errorf("k=0: got %v, want ErrBadParams", err)
	}
	if _, err := Split(1, 4, xsUpTo(3), rng); !errors.Is(err, ErrBadParams) {
		t.Errorf("k>n: got %v, want ErrBadParams", err)
	}
	if _, err := Split(1, 2, []field.Element{0, 1}, rng); !errors.Is(err, ErrZeroX) {
		t.Errorf("x=0: got %v, want ErrZeroX", err)
	}
	if _, err := Split(1, 2, []field.Element{3, 3}, rng); !errors.Is(err, ErrDuplicateX) {
		t.Errorf("dup x: got %v, want ErrDuplicateX", err)
	}
}

func TestReconstructValidation(t *testing.T) {
	rng := detRand(7)
	shares, err := Split(99, 3, xsUpTo(4), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reconstruct(shares[:2], 3); !errors.Is(err, ErrTooFewShares) {
		t.Errorf("too few: got %v", err)
	}
	dup := []Share{shares[0], shares[0], shares[1]}
	if _, err := Reconstruct(dup, 3); !errors.Is(err, ErrDuplicateX) {
		t.Errorf("dup: got %v", err)
	}
	zero := []Share{{X: 0, Y: 1}, shares[0], shares[1]}
	if _, err := Reconstruct(zero, 3); !errors.Is(err, ErrZeroX) {
		t.Errorf("zero x: got %v", err)
	}
}

func TestExtend(t *testing.T) {
	// Paper §5.1: new servers can be added without recalculating existing
	// shares by evaluating the polynomial at new points.
	rng := detRand(8)
	secret := field.New(rng.Uint64())
	k := 3
	shares, poly, err := SplitWithPoly(secret, k, xsUpTo(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	newXs := []field.Element{100, 200}
	ext, err := Extend(shares, k, newXs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ext {
		if s.X != newXs[i] {
			t.Fatalf("share %d has x=%d, want %d", i, s.X, newXs[i])
		}
		if want := poly.Eval(s.X); s.Y != want {
			t.Fatalf("extended share %d = %d, want f(x) = %d", i, s.Y, want)
		}
	}
	// Mixed old+new shares still reconstruct.
	mixed := []Share{shares[0], ext[0], ext[1]}
	got, err := Reconstruct(mixed, k)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Fatalf("mixed reconstruction = %d, want %d", got, secret)
	}
}

// TestProactiveRefresh is proactive secret sharing (Herzberg et al. [21],
// paper §5.1) at the level of one secret: adding a sharing of zero to
// every share leaves the secret unchanged and makes the old shares
// useless beside the new ones.
func TestProactiveRefresh(t *testing.T) {
	rng := detRand(9)
	secret := field.New(rng.Uint64())
	k, n := 2, 3
	xs := xsUpTo(n)
	shares, err := Split(secret, k, xs, rng)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := Split(0, k, xs, rng)
	if err != nil {
		t.Fatal(err)
	}
	refreshed := make([]Share, n)
	for i, s := range shares {
		refreshed[i] = Share{X: s.X, Y: field.Add(s.Y, deltas[i].Y)}
	}
	// Secret unchanged.
	got, err := Reconstruct(refreshed, k)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Fatalf("refreshed reconstruction = %d, want %d", got, secret)
	}
	// Shares changed (with overwhelming probability).
	changed := false
	for i := range shares {
		if shares[i].Y != refreshed[i].Y {
			changed = true
		}
	}
	if !changed {
		t.Fatal("refresh left all shares unchanged")
	}
	// Mixing an old share with new shares must NOT reconstruct the secret
	// (this is what neutralizes previously-leaked shares).
	mixed := []Share{shares[0], refreshed[1]}
	got, err = Reconstruct(mixed, k)
	if err != nil {
		t.Fatal(err)
	}
	if got == secret {
		t.Fatal("stale share still combines to the secret after refresh")
	}
}

func TestInterpolatePolyExact(t *testing.T) {
	// Interpolating k points of a known degree k-1 polynomial recovers
	// its exact coefficients.
	poly := field.Poly{7, 11, 13}
	shares := make([]Share, 3)
	for i := range shares {
		x := field.Element(i + 2)
		shares[i] = Share{X: x, Y: poly.Eval(x)}
	}
	got, err := InterpolatePoly(shares, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range poly {
		if got[i] != poly[i] {
			t.Fatalf("coefficient %d = %d, want %d", i, got[i], poly[i])
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	rng := detRand(11)
	f := func(raw uint64, kSeed uint8) bool {
		secret := field.New(raw)
		k := 1 + int(kSeed)%5
		n := k + 2
		shares, err := Split(secret, k, xsUpTo(n), rng)
		if err != nil {
			return false
		}
		got, err := Reconstruct(shares, k)
		return err == nil && got == secret
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSplitK2N3(b *testing.B) {
	rng := detRand(20)
	xs := xsUpTo(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Split(field.Element(i), 2, xs, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructLagrangeK2(b *testing.B) {
	rng := detRand(21)
	shares, _ := Split(12345, 2, xsUpTo(3), rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Reconstruct(shares, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructGaussianK2(b *testing.B) {
	rng := detRand(22)
	shares, _ := Split(12345, 2, xsUpTo(3), rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReconstructGaussian(shares, 2); err != nil {
			b.Fatal(err)
		}
	}
}
