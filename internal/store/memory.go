package store

import (
	"sync"

	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
)

// Memory is the single-lock baseline store: one RWMutex over flat maps,
// behaviourally identical to the storage the index server embedded
// before the engine was extracted. It is the reference implementation
// for tests and the StoreShards=1 legacy configuration.
type Memory struct {
	mu    sync.RWMutex
	tab   table
	elems int
}

var _ Store = (*Memory)(nil)

// NewMemory returns an empty single-lock store.
func NewMemory() *Memory {
	return &Memory{tab: newTable()}
}

// Upsert implements Store.
func (m *Memory) Upsert(lid merging.ListID, shares []posting.EncryptedShare) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	added := m.tab.upsert(lid, shares)
	m.elems += added
	return added
}

// DeleteIf implements Store.
func (m *Memory) DeleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	found, deleted = m.tab.deleteIf(lid, gid, allow)
	if deleted {
		m.elems--
	}
	return found, deleted
}

// Scan implements Store.
func (m *Memory) Scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) []posting.EncryptedShare {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tab.scan(lid, keep)
}

// ScanRange implements Store.
func (m *Memory) ScanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) ([]posting.EncryptedShare, int, uint8) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tab.scanRange(lid, from, n, keep)
}

// IngestList implements Store.
func (m *Memory) IngestList(lid merging.ListID, shares []posting.EncryptedShare) {
	m.Upsert(lid, shares)
}

// DropList implements Store.
func (m *Memory) DropList(lid merging.ListID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.tab.dropList(lid)
	m.elems -= n
	return n
}

// ApplyDeltas implements Store.
func (m *Memory) ApplyDeltas(deltas map[merging.ListID]map[posting.GlobalID]field.Element) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.tab.checkDeltas(deltas); err != nil {
		return err
	}
	m.tab.applyDeltas(deltas)
	return nil
}

// Keys implements Store.
func (m *Memory) Keys() map[merging.ListID][]posting.GlobalID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[merging.ListID][]posting.GlobalID, len(m.tab.lists))
	m.tab.keys(out)
	return out
}

// List implements Store.
func (m *Memory) List(lid merging.ListID) []posting.EncryptedShare {
	return m.Scan(lid, nil)
}

// ListLen implements Store.
func (m *Memory) ListLen(lid merging.ListID) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.tab.lists[lid])
}

// ListLengths implements Store.
func (m *Memory) ListLengths() map[merging.ListID]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[merging.ListID]int, len(m.tab.lists))
	m.tab.lengths(out)
	return out
}

// Sync implements Store; memory has nothing to make durable.
func (m *Memory) Sync() error { return nil }

// TotalElements implements Store.
func (m *Memory) TotalElements() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.elems
}
