package main

import (
	"slices"
	"testing"
)

// TestQueryTerms pins that a query is split and lowered the way
// textproc.TermCounts indexed the documents, so punctuation and case in
// the command-line words cannot make a query miss.
func TestQueryTerms(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"imclone"}, []string{"imclone"}},
		{[]string{"IMClone's"}, []string{"imclone", "s"}},
		{[]string{"budget,"}, []string{"budget"}},
		{[]string{`"martha imclone"`}, []string{"martha", "imclone"}}, // one quoted argument
		{[]string{"Martha", "IMCLONE", "Q3-budget"}, []string{"martha", "imclone", "q3", "budget"}},
		{[]string{"--", "!"}, nil},
	} {
		if got := queryTerms(tc.args); !slices.Equal(got, tc.want) {
			t.Errorf("queryTerms(%q) = %q, want %q", tc.args, got, tc.want)
		}
	}
}
