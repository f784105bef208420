// Package textproc provides the document-side text processing Zerber
// owners run before indexing: tokenization into terms, term-frequency
// counting, and snippet extraction for search results (paper §5.4.2:
// "Zerber clients request snippets from the peers hosting the top-K
// documents").
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits content into lowercase terms. A term is a maximal run
// of letters or digits; everything else separates. No stop words are
// removed — the paper's experiments explicitly keep them ("we did not
// remove stop words", §7.5).
func Tokenize(content string) []string {
	var out []string
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			out = append(out, sb.String())
			sb.Reset()
		}
	}
	for _, r := range content {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			sb.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

// TermCounts returns the raw per-term counts of the terms Tokenize would
// return, counting over content itself: a token is a substring, lowered
// only if it needs to be, and only a term's first occurrence allocates,
// a copy for the key, so the map never pins the document.
func TermCounts(content string) map[string]int {
	// at is read with substrings of content but written with copies: an
	// assignment (a counts[term]++) replaces the stored key with an alias.
	at := make(map[string]int, len(content)/32) // term -> its index in terms and n
	terms, n := make([]string, 0, 64), make([]int, 0, 64)
	add := func(term string, mixed bool) {
		if mixed {
			term = strings.ToLower(term)
		}
		if i, ok := at[term]; ok {
			n[i]++
			return
		}
		term = strings.Clone(term)
		at[term] = len(terms)
		terms, n = append(terms, term), append(n, 1)
	}
	// The token being read began at start (-1: none) and needs lowering if mixed.
	start, mixed := -1, false
	for i, r := range content {
		switch {
		case 'a' <= r && r <= 'z' || '0' <= r && r <= '9':
		case 'A' <= r && r <= 'Z' || r >= utf8.RuneSelf && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			mixed = true
		default:
			if start >= 0 {
				add(content[start:i], mixed)
				start, mixed = -1, false
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		add(content[start:], mixed)
	}
	counts := make(map[string]int, len(terms))
	for i, term := range terms {
		counts[term] = n[i]
	}
	return counts
}

// Snippet returns a window of about width bytes around the first
// occurrence of any query term in content (case-insensitive, whole-token
// match), with ellipses marking truncation. If no term occurs, the head
// of the document is returned. The paper budgets ~250 bytes per snippet
// including formatting (§7.3).
func Snippet(content string, queryTerms []string, width int) string {
	if width <= 0 {
		width = 250
	}
	lower := strings.ToLower(content)
	pos := -1
	for _, term := range queryTerms {
		t := strings.ToLower(term)
		if t == "" {
			continue
		}
		if p := indexToken(lower, t); p >= 0 && (pos < 0 || p < pos) {
			pos = p
		}
	}
	if pos < 0 {
		pos = 0
	}
	start := pos - width/2
	if start < 0 {
		start = 0
	}
	end := start + width
	if end > len(content) {
		end = len(content)
		if start = end - width; start < 0 {
			start = 0
		}
	}
	// Align to rune boundaries so we never split UTF-8 sequences.
	for start > 0 && !isRuneStart(content[start]) {
		start--
	}
	for end < len(content) && !isRuneStart(content[end]) {
		end++
	}
	snippet := content[start:end]
	if start > 0 {
		snippet = "…" + snippet
	}
	if end < len(content) {
		snippet += "…"
	}
	return snippet
}

// indexToken finds term in lower as a whole token (bounded by
// non-alphanumeric runes), returning -1 if absent.
func indexToken(lower, term string) int {
	from := 0
	for {
		p := strings.Index(lower[from:], term)
		if p < 0 {
			return -1
		}
		p += from
		beforeOK := p == 0 || !isWordByte(lower[p-1])
		afterOK := p+len(term) >= len(lower) || !isWordByte(lower[p+len(term)])
		if beforeOK && afterOK {
			return p
		}
		from = p + 1
	}
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= '0' && b <= '9' || b >= 'A' && b <= 'Z'
}

func isRuneStart(b byte) bool { return b&0xC0 != 0x80 }
