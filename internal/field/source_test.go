package field

import (
	"bytes"
	"testing"
)

// TestInvAdditionChainMatchesPow pins the fixed addition chain in Inv to
// the generic Pow(a, P-2) it replaced, over edge inputs and a random
// sweep.
func TestInvAdditionChainMatchesPow(t *testing.T) {
	edges := []Element{0, 1, 2, 3, Element(P - 1), Element(P - 2), Element((P + 1) / 2), 1 << 60}
	for _, a := range edges {
		want := Element(0)
		if a != 0 {
			want = Pow(a, P-2)
		}
		if got := Inv(a); got != want {
			t.Errorf("Inv(%d) = %d, want Pow(a, P-2) = %d", a, got, want)
		}
	}
	r := detRand(42)
	for i := 0; i < 2000; i++ {
		a := randElem(r)
		if a == 0 {
			continue
		}
		if got, want := Inv(a), Pow(a, P-2); got != want {
			t.Fatalf("Inv(%d) = %d, want %d", a, got, want)
		}
		if Mul(a, Inv(a)) != 1 {
			t.Fatalf("a * Inv(a) != 1 for a=%d", a)
		}
	}
}

// TestShareSourcePassThroughMatchesRand verifies the drop-in guarantee:
// over the same deterministic byte stream, a pass-through ShareSource
// draws exactly the elements the unbatched Rand draws.
func TestShareSourcePassThroughMatchesRand(t *testing.T) {
	const draws = 500
	seq := detRand(11)
	src := NewShareSource(detRand(11))
	for i := 0; i < draws; i++ {
		want, err := Rand(seq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := src.Element()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("draw %d: ShareSource = %d, Rand = %d", i, got, want)
		}
	}
}

// TestShareSourceFillRandMatchesSequentialDraws checks that the bulk
// path consumes the stream identically to element-at-a-time draws.
func TestShareSourceFillRandMatchesSequentialDraws(t *testing.T) {
	a := NewShareSource(detRand(12))
	b := NewShareSource(detRand(12))
	bulk := make([]Element, 300)
	if err := a.FillRand(bulk); err != nil {
		t.Fatal(err)
	}
	for i, want := range bulk {
		got, err := b.Element()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("element %d: bulk %d != sequential %d", i, want, got)
		}
	}
}

// TestShareSourceDRBG exercises the crypto-seeded mode across a reseed
// boundary: every element canonical, and two sources disagree (the
// streams are independently keyed).
func TestShareSourceDRBG(t *testing.T) {
	a := NewShareSource(nil)
	b := NewShareSource(nil)
	dst := make([]Element, reseedEvery+100) // forces at least one re-key
	if err := a.FillRand(dst); err != nil {
		t.Fatal(err)
	}
	for i, e := range dst {
		if uint64(e) >= P {
			t.Fatalf("element %d non-canonical: %d", i, e)
		}
	}
	other := make([]Element, 8)
	if err := b.FillRand(other); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range other {
		if other[i] != dst[i] {
			same = false
		}
	}
	if same {
		t.Error("two crypto-seeded sources produced identical streams")
	}
}

// TestShareSourceNilSafety: a nil *ShareSource must behave like the
// crypto default rather than panic.
func TestShareSourceNilSafety(t *testing.T) {
	var s *ShareSource
	e, err := s.Element()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(e) >= P {
		t.Fatalf("non-canonical element %d", e)
	}
	buf := make([]byte, 16)
	if _, err := s.Read(buf); err != nil {
		t.Fatal(err)
	}
}

// TestSourceFrom covers the three adaptation cases.
func TestSourceFrom(t *testing.T) {
	s := NewShareSource(nil)
	if SourceFrom(s) != s {
		t.Error("SourceFrom must return an existing ShareSource unchanged")
	}
	if SourceFrom(nil) == nil {
		t.Error("SourceFrom(nil) must build a DRBG source")
	}
	det := SourceFrom(detRand(13))
	want, err := Rand(detRand(13))
	if err != nil {
		t.Fatal(err)
	}
	got, err := det.Element()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("SourceFrom(reader) must wrap in pass-through mode")
	}
}

// TestShareSourceReadPassThrough: Read in pass-through mode must return
// the reader's exact bytes, and propagate exhaustion.
func TestShareSourceReadPassThrough(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := NewShareSource(bytes.NewReader(data))
	buf := make([]byte, 10)
	if _, err := s.Read(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("Read = %v, want %v", buf, data)
	}
	if _, err := s.Read(buf[:1]); err == nil {
		t.Error("exhausted pass-through source must error")
	}
}

// TestRandNilUsesPooledSource: Rand(nil) must stay canonical and keep
// working across many draws (pool churn, reseeds).
func TestRandNilUsesPooledSource(t *testing.T) {
	for i := 0; i < 5000; i++ {
		e, err := Rand(nil)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(e) >= P {
			t.Fatalf("Rand(nil) non-canonical: %d", e)
		}
	}
}

func BenchmarkInvChain(b *testing.B) {
	x := New(1234567891234567)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = Inv(x)
	}
	_ = x
}

// BenchmarkFillRandDRBG measures the buffered bulk path: one document's
// worth of coefficients per op.
func BenchmarkFillRandDRBG(b *testing.B) {
	src := NewShareSource(nil)
	dst := make([]Element, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.FillRand(dst); err != nil {
			b.Fatal(err)
		}
	}
}
