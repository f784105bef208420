package peer

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// TestShufflePermIsAPermutation: whatever the reader yields, every index
// of [0, n) comes out exactly once, at sizes around the 32-draw read
// buffer's edges as well.
func TestShufflePermIsAPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 28, 32, 33, 34, 64, 65, 1000, 25_000} {
		perm, err := randomPerm(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("n=%d: %d out of range or repeated", n, v)
			}
			seen[v] = true
		}
		if len(perm) != n {
			t.Fatalf("n=%d: %d entries", n, len(perm))
		}
	}
}

// TestShufflePermIsUniform draws 24,000 shuffles of four elements from a
// seeded reader and tests the counts of the 24 orders against the
// uniform distribution: chi-square with 23 degrees of freedom exceeds
// 49.7 once in a thousand (the seed is fixed, so this one never does);
// an order that cannot occur or a modulo-biased index sends it into the
// hundreds.
func TestShufflePermIsUniform(t *testing.T) {
	const draws = 24_000
	rng := rand.New(rand.NewSource(4))
	counts := make(map[[4]int]int)
	for i := 0; i < draws; i++ {
		perm, err := randomPerm(rng, 4)
		if err != nil {
			t.Fatal(err)
		}
		counts[[4]int(perm)]++
	}
	if len(counts) != 24 {
		t.Fatalf("%d distinct orders of 4 elements, want all 24", len(counts))
	}
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - draws/24
		chi2 += d * d / (draws / 24)
	}
	if chi2 > 49.7 {
		t.Errorf("chi-square %.1f over 24 orders, want under 49.7", chi2)
	}
}

// TestShufflePermShortRead: a source that runs dry is an error and no
// permutation, never a shuffle finished with whatever was read.
func TestShufflePermShortRead(t *testing.T) {
	for _, have := range []int{0, 7, 8, 8 * 39} { // 41 elements need 40 draws, in two reads
		perm, err := randomPerm(bytes.NewReader(make([]byte, have)), 41)
		if err == nil || perm != nil {
			t.Errorf("%d bytes for 40 draws: perm %v, err %v; want nil and an error", have, perm, err)
		}
	}
	if perm, err := randomPerm(bytes.NewReader(make([]byte, 8*40)), 41); err != nil || len(perm) != 41 {
		t.Errorf("exactly enough bytes: %d entries, %v", len(perm), err)
	}
	if _, err := randomPerm(io.LimitReader(rand.New(rand.NewSource(1)), 8*40), 41); err != nil {
		t.Errorf("a permutation reads 8 bytes a draw and no more: %v", err)
	}
}
