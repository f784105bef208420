// Package invindex implements an ordinary (plain-text) inverted index: a
// map from term to posting list, where each posting carries a document ID
// and a term frequency (paper Fig. 1).
//
// It plays three roles in the reproduction:
//
//  1. the baseline system the paper compares Zerber against throughout §7
//     (storage, bandwidth, and workload-cost ratios);
//  2. the local index every document owner keeps over its own shared
//     documents to support efficient updates (§7.2);
//  3. the source of the document-frequency statistics that drive the
//     merging heuristics (§6).
//
// A posting list keeps insertion order: a posting stays where its first
// Add put it while its document keeps the term, also when a re-Add
// changes the tf (rewritten in place, not moved to the tail).
package invindex

import (
	"slices"
	"sort"
	"sync"
)

// Posting is one entry of a posting list.
type Posting struct {
	DocID uint32
	TF    uint16 // raw term count within the document
}

// PlainElementBytes is the serialized size of one plain posting: 4 bytes
// document ID + 2 bytes tf (padded to 8 in typical on-disk layouts; we use
// the tight encoding and let package netsim apply the paper's accounting).
const PlainElementBytes = 4 + 2

// Index is a thread-safe in-memory inverted index.
// The zero value is not usable; call New.
type Index struct {
	mu      sync.RWMutex
	lists   map[string][]Posting
	docLens map[uint32]int // total term count per document
	// docTerms is the reverse map: each document's terms, sorted, with the
	// tf its posting carries, so an update diffs against it and removal
	// touches only the document's own lists. A term is its index in names,
	// which only grows (ids leads back): 8 bytes a term, never scanned.
	docTerms map[uint32][]docTerm
	ids      map[string]uint32
	names    []string
	postings int // total posting count, maintained incrementally
}

// docTerm is a term ID and, in the low 16 bits, the tf: sortable by ID.
type docTerm uint64

func (dt docTerm) id() uint32 { return uint32(dt >> 16) }
func (dt docTerm) tf() uint16 { return uint16(dt) }

// New returns an empty index.
func New() *Index {
	return &Index{
		lists:    make(map[string][]Posting),
		docLens:  make(map[uint32]int),
		docTerms: make(map[uint32][]docTerm),
		ids:      make(map[string]uint32),
	}
}

// Add indexes a document given its per-term counts. Re-adding an existing
// document ID replaces the previous version, which is how owner daemons
// handle document updates (§5.4.1, footnote 2), as a diff: an unchanged
// (term, tf) is left alone, a changed tf is rewritten in place, dropped
// terms are removed and new ones appended, at a cost that follows the
// changed terms, not the lengths of the document's lists.
func (ix *Index) Add(docID uint32, counts map[string]int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	next, total := make([]docTerm, 0, len(counts)), 0
	for term, c := range counts {
		if c <= 0 {
			continue
		}
		id, known := ix.ids[term]
		if !known {
			id = uint32(len(ix.names))
			ix.ids[term] = id
			ix.names = append(ix.names, term)
		}
		next = append(next, docTerm(id)<<16|docTerm(min(c, 1<<16-1)))
		total += c
	}
	slices.Sort(next)
	// Both versions are sorted by term ID: one merge walk finds the terms
	// only old has (dropped), both (kept, retagged) and only next (new).
	old := ix.docTerms[docID]
	for _, dt := range next {
		for len(old) > 0 && old[0].id() < dt.id() {
			ix.dropPosting(ix.names[old[0].id()], docID)
			old = old[1:]
		}
		term := ix.names[dt.id()]
		if len(old) == 0 || old[0].id() != dt.id() {
			ix.lists[term] = append(ix.lists[term], Posting{DocID: docID, TF: dt.tf()})
			ix.postings++
			continue
		}
		if old[0] != dt { // an unchanged (term, tf) costs no list lookup
			pl := ix.lists[term]
			pl[find(pl, docID)].TF = dt.tf()
		}
		old = old[1:]
	}
	for _, dt := range old {
		ix.dropPosting(ix.names[dt.id()], docID)
	}
	ix.docTerms[docID] = next
	ix.docLens[docID] = total
}

// Remove deletes all postings of a document. It reports whether the
// document was present.
func (ix *Index) Remove(docID uint32) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docLens[docID]; !ok {
		return false
	}
	for _, dt := range ix.docTerms[docID] {
		ix.dropPosting(ix.names[dt.id()], docID)
	}
	delete(ix.docTerms, docID)
	delete(ix.docLens, docID)
	return true
}

// find returns the position of docID's posting in pl, which holds one.
func find(pl []Posting, docID uint32) int {
	for i := range pl {
		if pl[i].DocID == docID {
			return i
		}
	}
	panic("invindex: docTerms names a list that lacks the document")
}

// dropPosting removes docID's posting from term's list in place, keeping
// the order of the rest; an emptied list leaves the vocabulary.
func (ix *Index) dropPosting(term string, docID uint32) {
	pl := ix.lists[term]
	i := find(pl, docID)
	ix.postings--
	if len(pl) == 1 {
		delete(ix.lists, term)
		return
	}
	copy(pl[i:], pl[i+1:])
	ix.lists[term] = pl[:len(pl)-1]
}

// Lookup returns a copy of the posting list for term (nil if absent).
func (ix *Index) Lookup(term string) []Posting {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pl, ok := ix.lists[term]
	if !ok {
		return nil
	}
	out := make([]Posting, len(pl))
	copy(out, pl)
	return out
}

// DocFreq returns the number of documents containing term — the length of
// its posting list, the quantity the paper's threat model says an ordinary
// index leaks (§4).
func (ix *Index) DocFreq(term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.lists[term])
}

// DocFreqs returns a snapshot of all document frequencies. This is the
// statistic that drives the merging heuristics (§6: "All the algorithms
// base merging decisions on keywords' document frequencies").
func (ix *Index) DocFreqs() map[string]int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[string]int, len(ix.lists))
	for term, pl := range ix.lists {
		out[term] = len(pl)
	}
	return out
}

// Terms returns the sorted vocabulary.
func (ix *Index) Terms() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.lists))
	for term := range ix.lists {
		out = append(out, term)
	}
	sort.Strings(out)
	return out
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docLens)
}

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.lists)
}

// TotalPostings returns the total number of posting elements, i.e. the
// index size in elements (Fig. 1 has 9).
func (ix *Index) TotalPostings() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.postings
}

// DocLen returns the total term count of a document (0 if unknown).
func (ix *Index) DocLen(docID uint32) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docLens[docID]
}

// HasDoc reports whether the document is indexed.
func (ix *Index) HasDoc(docID uint32) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.docLens[docID]
	return ok
}

// StorageBytes returns the plain-text index size in bytes under the tight
// element encoding, used by the §7.2 storage-overhead experiment.
func (ix *Index) StorageBytes() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.postings * PlainElementBytes
}
