package auth

import (
	"slices"
	"testing"
)

func TestParseGroups(t *testing.T) {
	for _, tc := range []struct {
		spec        string
		memberships int
		alice       []GroupID
		bad         bool
	}{
		{spec: "", memberships: 0},
		{spec: "alice:1, alice:2,bob:2", memberships: 3, alice: []GroupID{1, 2}},
		{spec: "alice:1,alice:1,bob:1", memberships: 2, alice: []GroupID{1}}, // a duplicate counts once
		{spec: "alice", bad: true},     // no group
		{spec: "alice:1,", bad: true},  // empty entry
		{spec: ":1", bad: true},        // empty user
		{spec: "alice:one", bad: true}, // group not a number
		{spec: "alice:-1", bad: true},
		{spec: "alice:4294967296", bad: true}, // past 32 bits
	} {
		gt, n, err := ParseGroups(tc.spec)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseGroups(%q) accepted a malformed list", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseGroups(%q): %v", tc.spec, err)
			continue
		}
		if n != tc.memberships {
			t.Errorf("ParseGroups(%q) counted %d memberships, want %d", tc.spec, n, tc.memberships)
		}
		if got := gt.GroupsOf("alice"); !slices.Equal(got, tc.alice) {
			t.Errorf("ParseGroups(%q): alice in %v, want %v", tc.spec, got, tc.alice)
		}
	}
}
