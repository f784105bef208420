package textproc

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
	"unsafe"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Martha bought ImClone; layoffs followed. Q3-2007!")
	want := []string{"martha", "bought", "imclone", "layoffs", "followed", "q3", "2007"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Цербер — мифический пёс")
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	if got[0] != "цербер" {
		t.Errorf("first token = %q", got[0])
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("empty input gave %v", got)
	}
	if got := Tokenize("!!! ... ---"); len(got) != 0 {
		t.Errorf("punctuation-only input gave %v", got)
	}
}

func TestTermCounts(t *testing.T) {
	counts := TermCounts("the cat and the hat")
	if counts["the"] != 2 || counts["cat"] != 1 || counts["hat"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestTokenizeNeverProducesEmptyOrUpper(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" || tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSnippetContainsTerm(t *testing.T) {
	content := strings.Repeat("filler words here ", 100) +
		"the secret Hesselhofer appointment memo" +
		strings.Repeat(" trailing text", 100)
	s := Snippet(content, []string{"hesselhofer"}, 80)
	if !strings.Contains(strings.ToLower(s), "hesselhofer") {
		t.Errorf("snippet %q does not contain the query term", s)
	}
	if len(s) > 80+2*len("…") {
		t.Errorf("snippet length %d exceeds width budget", len(s))
	}
	if !strings.HasPrefix(s, "…") || !strings.HasSuffix(s, "…") {
		t.Error("mid-document snippet must be marked with ellipses")
	}
}

func TestSnippetNoMatchReturnsHead(t *testing.T) {
	content := "Once upon a time there was a very long story about nothing much at all, repeated endlessly."
	s := Snippet(content, []string{"absent"}, 40)
	if !strings.HasPrefix(s, "Once upon") {
		t.Errorf("snippet %q must start at the document head", s)
	}
}

func TestSnippetWholeTokenMatch(t *testing.T) {
	// "art" must not match inside "Martha".
	content := strings.Repeat("Martha Stewart again and again. ", 20) + "fine art here" + strings.Repeat(" x", 50)
	s := Snippet(content, []string{"art"}, 30)
	if !strings.Contains(s, "art here") && !strings.Contains(s, "fine art") {
		t.Errorf("snippet %q matched a substring instead of a token", s)
	}
}

func TestSnippetShortDocument(t *testing.T) {
	content := "tiny doc"
	s := Snippet(content, []string{"doc"}, 250)
	if s != content {
		t.Errorf("snippet of short doc = %q, want whole content", s)
	}
}

func TestSnippetDefaultWidth(t *testing.T) {
	content := strings.Repeat("word ", 200)
	s := Snippet(content, []string{"word"}, 0)
	if len(s) > 250+2*len("…") {
		t.Errorf("default width snippet too long: %d", len(s))
	}
}

func TestSnippetValidUTF8(t *testing.T) {
	f := func(s string, w uint8) bool {
		if !utf8.ValidString(s) {
			return true // only meaningful for valid inputs
		}
		snip := Snippet(s, []string{"q"}, int(w%64)+1)
		return utf8.ValidString(snip)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Specifically around multi-byte runes.
	content := strings.Repeat("日本語テキスト ", 50)
	s := Snippet(content, []string{"テキスト"}, 20)
	if !utf8.ValidString(s) {
		t.Error("snippet split a UTF-8 sequence")
	}
}

// TestTermCountsKeysDoNotPinContent: the counts outlive the document
// (the peer's local index keeps the keys), so no key may be a substring
// of the content it was counted from.
func TestTermCountsKeysDoNotPinContent(t *testing.T) {
	content := "plain tokens plain UPPER école plain"
	lo := uintptr(unsafe.Pointer(unsafe.StringData(content)))
	counts := TermCounts(content)
	if counts["plain"] != 3 || counts["upper"] != 1 || counts["école"] != 1 || len(counts) != 4 {
		t.Fatalf("counts = %v", counts)
	}
	for term := range counts {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(term))); p >= lo && p < lo+uintptr(len(content)) {
			t.Errorf("key %q aliases the content", term)
		}
	}
}

// BenchmarkTermCounts counts a document shaped like the repository
// benchmark's: 50 distinct lowercase terms, about 350 tokens.
func BenchmarkTermCounts(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		for c := 0; c < 1+350/(7*(i+1)); c++ {
			fmt.Fprintf(&sb, "term%04d ", i*37)
		}
	}
	content := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCounts = TermCounts(content)
	}
}

var sinkCounts map[string]int

func BenchmarkTokenize(b *testing.B) {
	content := strings.Repeat("the quick brown fox jumps over the lazy dog 1234 ", 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Tokenize(content)
	}
}
