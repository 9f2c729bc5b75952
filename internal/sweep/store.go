package sweep

import (
	"fmt"
	"sync"
)

// StoreEngine is the result-store contract the scheduling layers (Run,
// Service, FrontierSearch) and the serving layer (cmd/sweepd) consume:
// content-addressed record lookup, durable append, and a first-seen-order
// snapshot. Two engines implement it — the file engine *IndexedStore
// (indexed.go), which opens by sidecar offset index and serves Get by
// disk seek, and the in-memory *Store below. Both are safe for
// concurrent use; by the store contract a record, once Put, is immutable
// (records are pure functions of their spec hash), so every engine may
// serve Get from whichever copy — memory or disk — it holds.
type StoreEngine interface {
	// Get returns the record stored under a spec hash.
	Get(hash string) (Record, bool)
	// Put indexes rec and, for disk-backed engines, durably appends it.
	Put(rec Record) error
	// Len returns the number of indexed records.
	Len() int
	// Records returns the indexed records in first-seen order.
	Records() []Record
	// Close releases any backing resources.
	Close() error
}

// Store is the in-memory StoreEngine: records indexed by spec hash, with
// no persistence. The experiment tables and store-less cmd/sweep runs
// use it; anything that must outlive the process goes through
// IndexedStore.
type Store struct {
	mu    sync.Mutex
	recs  map[string]Record
	order []string
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *Store {
	return &Store{recs: make(map[string]Record)}
}

// Get returns the cached record for a spec hash.
func (s *Store) Get(hash string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[hash]
	return rec, ok
}

// Put indexes rec; a re-Put replaces the record in its first-seen
// position. The record is encoded (outside the lock) and discarded, so
// a record the file engine could not persist fails here too.
func (s *Store) Put(rec Record) error {
	if _, err := EncodeLine(rec); err != nil {
		return fmt.Errorf("sweep: store append: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.recs[rec.Hash]; !ok {
		s.order = append(s.order, rec.Hash)
	}
	s.recs[rec.Hash] = rec
	return nil
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Records returns the indexed records in first-seen order.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.order))
	for _, h := range s.order {
		out = append(out, s.recs[h])
	}
	return out
}

// Close is a no-op: a memory store holds no backing resources.
func (s *Store) Close() error { return nil }
