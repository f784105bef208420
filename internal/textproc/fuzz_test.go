package textproc

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzTokenize verifies the tokenizer's invariants on arbitrary input:
// no panics, no empty tokens, all tokens lowercase, and TermCounts, which
// counts over the content without calling Tokenize, equal key for key to
// a count over Tokenize's output.
func FuzzTokenize(f *testing.F) {
	f.Add("Martha sold ImClone; layoffs followed.")
	f.Add("Цербер — мифический пёс 123")
	f.Add("")
	f.Add(strings.Repeat("a", 10000))
	f.Add("lower MiXed lower\u00a0nbsp…ellipsis İstanbul ǅ straße ÉCOLE école x\xffy\xc3 9z")
	f.Fuzz(func(t *testing.T, content string) {
		tokens := Tokenize(content)
		for _, tok := range tokens {
			if tok == "" {
				t.Fatal("empty token")
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("token %q not lowercase", tok)
			}
		}
		want := make(map[string]int)
		for _, tok := range tokens {
			want[tok]++
		}
		counts := TermCounts(content)
		if len(counts) != len(want) {
			t.Fatalf("TermCounts has %d terms, Tokenize yields %d", len(counts), len(want))
		}
		for term, c := range counts {
			if c != want[term] {
				t.Fatalf("TermCounts[%q] = %d, counting Tokenize gives %d", term, c, want[term])
			}
		}
	})
}

// FuzzSnippet verifies snippets never split UTF-8 sequences and never
// exceed the width budget by more than the ellipsis markers.
func FuzzSnippet(f *testing.F) {
	f.Add("some document content here", "content", 20)
	f.Add("日本語テキストのドキュメント", "テキスト", 10)
	f.Fuzz(func(t *testing.T, content, term string, width int) {
		if !utf8.ValidString(content) || width > 1<<20 {
			return
		}
		s := Snippet(content, []string{term}, width)
		if !utf8.ValidString(s) {
			t.Fatalf("snippet is not valid UTF-8: %q", s)
		}
	})
}
