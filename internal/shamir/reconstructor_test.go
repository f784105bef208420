package shamir

import (
	"testing"

	"zerber/internal/field"
)

func TestReconstructorMatchesLagrange(t *testing.T) {
	rng := detRand(30)
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(5)
		n := k + rng.Intn(3)
		secret := field.New(rng.Uint64())
		shares, err := Split(secret, k, xsUpTo(n), rng)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]field.Element, k)
		ys := make([]field.Element, k)
		for i := 0; i < k; i++ {
			xs[i], ys[i] = shares[i].X, shares[i].Y
		}
		rec, err := NewReconstructor(xs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.Reconstruct(ys)
		if err != nil {
			t.Fatal(err)
		}
		if got != secret {
			t.Fatalf("k=%d: reconstructor gave %d, want %d", k, got, secret)
		}
	}
}

func TestReconstructorReuseAcrossElements(t *testing.T) {
	rng := detRand(31)
	xs := []field.Element{11, 22, 33}
	rec, err := NewReconstructor(xs[:2])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		secret := field.New(rng.Uint64())
		shares, err := Split(secret, 2, xs, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.Reconstruct([]field.Element{shares[0].Y, shares[1].Y})
		if err != nil {
			t.Fatal(err)
		}
		if got != secret {
			t.Fatalf("element %d: got %d, want %d", i, got, secret)
		}
	}
}

func TestReconstructorValidation(t *testing.T) {
	if _, err := NewReconstructor(nil); err == nil {
		t.Error("empty xs must be rejected")
	}
	if _, err := NewReconstructor([]field.Element{0, 1}); err == nil {
		t.Error("zero x must be rejected")
	}
	if _, err := NewReconstructor([]field.Element{5, 5}); err == nil {
		t.Error("duplicate xs must be rejected")
	}
	rec, err := NewReconstructor([]field.Element{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Reconstruct([]field.Element{1}); err == nil {
		t.Error("wrong ys length must be rejected")
	}
	if rec.K() != 2 || len(rec.Xs()) != 2 {
		t.Error("accessors wrong")
	}
}

func BenchmarkReconstructorK2(b *testing.B) {
	rng := detRand(32)
	shares, _ := Split(12345, 2, xsUpTo(3), rng)
	rec, err := NewReconstructor([]field.Element{shares[0].X, shares[1].X})
	if err != nil {
		b.Fatal(err)
	}
	ys := []field.Element{shares[0].Y, shares[1].Y}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Reconstruct(ys); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCoefficientsReconstruct: the sum of Coefficients()[i]·ys[i] is the
// secret, and the returned slice is the caller's to change.
func TestCoefficientsReconstruct(t *testing.T) {
	rng := detRand(33)
	xs := []field.Element{11, 22, 33}
	rec, err := NewReconstructor(xs)
	if err != nil {
		t.Fatal(err)
	}
	coef := rec.Coefficients()
	for i := 0; i < 100; i++ {
		secret := field.New(rng.Uint64())
		shares, err := Split(secret, 3, xs, rng)
		if err != nil {
			t.Fatal(err)
		}
		var got field.Element
		for j, sh := range shares {
			got = field.Add(got, field.Mul(coef[j], sh.Y))
		}
		if got != secret {
			t.Fatalf("element %d: got %d, want %d", i, got, secret)
		}
	}
	coef[0] = 0
	if rec.Coefficients()[0] == 0 {
		t.Error("changing the returned coefficients changed the reconstructor's")
	}
}

// TestReconstructBatchMatchesReconstruct: over a share matrix with one
// column per server, the batch kernel recovers every row's secret from
// whichever k columns its basis names — the same value Reconstruct gives
// on the gathered shares — without allocating.
func TestReconstructBatchMatchesReconstruct(t *testing.T) {
	rng := detRand(32)
	xs := xsUpTo(5)
	const rows = 300
	secrets := make([]field.Element, rows)
	for i := range secrets {
		secrets[i] = field.New(rng.Uint64())
	}
	sp, err := NewSplitter(3, xs)
	if err != nil {
		t.Fatal(err)
	}
	byServer := make([]field.Element, len(xs)*rows)
	if err := sp.SplitBatch(secrets, byServer, rng); err != nil {
		t.Fatal(err)
	}
	ys := make([]field.Element, rows*len(xs)) // row-major: one column per server
	for s := range xs {
		for i := 0; i < rows; i++ {
			ys[i*len(xs)+s] = byServer[s*rows+i]
		}
	}
	for _, cols := range [][]int{{0, 1, 2}, {1, 2, 3}, {0, 2, 4}} {
		rec, err := NewReconstructor([]field.Element{xs[cols[0]], xs[cols[1]], xs[cols[2]]})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]field.Element, rows)
		if allocs := testing.AllocsPerRun(1, func() {
			if err := rec.ReconstructBatch(got, ys, len(xs), cols); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("cols %v: %v allocations, want none", cols, allocs)
		}
		for i, want := range secrets {
			one, err := rec.Reconstruct([]field.Element{ys[i*len(xs)+cols[0]], ys[i*len(xs)+cols[1]], ys[i*len(xs)+cols[2]]})
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want || one != want {
				t.Fatalf("cols %v row %d: batch %d, single %d, want %d", cols, i, got[i], one, want)
			}
		}
	}
	rec, err := NewReconstructor(xs[:3])
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]field.Element, 2)
	for name, call := range map[string]func() error{
		"too few columns":   func() error { return rec.ReconstructBatch(dst, ys[:10], 5, []int{0, 1}) },
		"column off stride": func() error { return rec.ReconstructBatch(dst, ys[:10], 5, []int{0, 1, 5}) },
		"negative column":   func() error { return rec.ReconstructBatch(dst, ys[:10], 5, []int{0, -1, 2}) },
		"short matrix":      func() error { return rec.ReconstructBatch(dst, ys[:9], 5, []int{0, 1, 2}) },
	} {
		if call() == nil {
			t.Errorf("%s must be rejected", name)
		}
	}
}
