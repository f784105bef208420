package auth

import (
	"slices"
	"sort"
	"sync"
)

// GroupID identifies a collaboration group. Documents are shared with one
// group; users belong to a (small, §2) set of groups.
type GroupID uint32

// GroupSet is an immutable set of groups: one user's memberships as the
// table held them at one instant. It is a snapshot, not a view: a request
// that has fetched its set finishes with it, as it did with the
// per-request copy this type replaces — a Remove landing mid-scan does
// not reach it, and the next request's set never admits the removed
// group. Nothing outside this package can write to a set, so one value
// serves every request of the user until the next Add or Remove replaces
// it, and handing it out copies nothing. The zero GroupSet is empty.
type GroupSet struct {
	ids []GroupID // ascending, distinct, never written after construction
}

// groupSetLinear is the length up to which Has tests every member instead
// of bisecting: users are in a handful of groups (§2).
const groupSetLinear = 16

// Has reports whether g is in the set: the test of every posting-list
// scan (§5.4.2), asked once per run of one group's elements. The short
// case ORs the comparisons together in arithmetic with no exit at the
// first match: the group of the next run is as good as random, and a
// mispredicted early exit costs more than the few comparisons it skips.
func (s GroupSet) Has(g GroupID) bool {
	if len(s.ids) > groupSetLinear {
		_, found := slices.BinarySearch(s.ids, g)
		return found
	}
	var hit uint64
	for _, id := range s.ids {
		hit |= (uint64(id^g) - 1) >> 63 // 1 exactly when id == g
	}
	return hit != 0
}

// GroupTable is the user-group metadata each index server records
// (paper Fig. 3). Membership changes take effect immediately: "To add or
// remove a user from a group, only the table containing the user-group
// metadata needs to be updated" (§5.3).
//
// GroupTable is safe for concurrent use.
type GroupTable struct {
	mu      sync.RWMutex
	byUser  map[UserID]GroupSet // a set is replaced whole, never edited
	byGroup map[GroupID]map[UserID]struct{}
}

// NewGroupTable returns an empty table.
func NewGroupTable() *GroupTable {
	return &GroupTable{
		byUser:  make(map[UserID]GroupSet),
		byGroup: make(map[GroupID]map[UserID]struct{}),
	}
}

// Add puts user into group (idempotent).
func (g *GroupTable) Add(user UserID, group GroupID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := g.byUser[user].ids
	if i, found := slices.BinarySearch(ids, group); !found {
		g.byUser[user] = GroupSet{ids: slices.Insert(slices.Clone(ids), i, group)}
	}
	if g.byGroup[group] == nil {
		g.byGroup[group] = make(map[UserID]struct{})
	}
	g.byGroup[group][user] = struct{}{}
}

// Remove takes user out of group; it reports whether the membership
// existed. Future queries by the user immediately stop seeing the group's
// posting elements.
func (g *GroupTable) Remove(user UserID, group GroupID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := g.byUser[user].ids
	i, found := slices.BinarySearch(ids, group)
	if !found {
		return false
	}
	if len(ids) == 1 {
		delete(g.byUser, user)
	} else {
		g.byUser[user] = GroupSet{ids: slices.Delete(slices.Clone(ids), i, i+1)}
	}
	delete(g.byGroup[group], user)
	if len(g.byGroup[group]) == 0 {
		delete(g.byGroup, group)
	}
	return true
}

// GroupsOf returns the sorted groups of a user, in a slice of the caller's.
func (g *GroupTable) GroupsOf(user UserID) []GroupID {
	return append([]GroupID{}, g.GroupSetOf(user).ids...)
}

// GroupSetOf returns the user's current snapshot — the group lookup done
// once per query (§5.4.2) — without copying or allocating.
func (g *GroupTable) GroupSetOf(user UserID) GroupSet {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.byUser[user]
}

// MembersOf returns the sorted members of a group.
func (g *GroupTable) MembersOf(group GroupID) []UserID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]UserID, 0, len(g.byGroup[group]))
	for u := range g.byGroup[group] {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsMember reports whether user belongs to group.
func (g *GroupTable) IsMember(user UserID, group GroupID) bool {
	return g.GroupSetOf(user).Has(group)
}

// NumGroups returns the number of non-empty groups.
func (g *GroupTable) NumGroups() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.byGroup)
}
