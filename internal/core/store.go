package core

import (
	"fmt"
	"sort"
	"sync"

	"preserial/internal/sem"
)

// StoreRef locates an object data member in the backing database.
type StoreRef struct {
	Table  string
	Key    string
	Column string
}

// String renders the reference as table/key.column.
func (r StoreRef) String() string {
	return fmt.Sprintf("%s/%s.%s", r.Table, r.Key, r.Column)
}

// less orders references canonically (table, then key, then column) — the
// lock-acquisition order every SST follows.
func (r StoreRef) less(s StoreRef) bool {
	if r.Table != s.Table {
		return r.Table < s.Table
	}
	if r.Key != s.Key {
		return r.Key < s.Key
	}
	return r.Column < s.Column
}

// SSTWrite is one write of a Secure System Transaction.
type SSTWrite struct {
	Ref   StoreRef
	Value sem.Value
}

// SortSSTWrites puts an SST write batch into the canonical StoreRef order
// (table, key, column). Every batch handed to Store.ApplySST must be in
// this order: write sets are assembled from maps, whose iteration order is
// random, and concurrent SSTs acquiring row locks in differing orders can
// deadlock each other. One canonical order makes SST↔SST deadlocks
// structurally impossible. gtmlint/lockorder enforces that map-built
// batches pass through here.
func SortSSTWrites(writes []SSTWrite) {
	sort.Slice(writes, func(i, j int) bool { return writes[i].Ref.less(writes[j].Ref) })
}

// SortStoreRefs puts a reference list into the canonical acquisition
// order; see SortSSTWrites.
func SortStoreRefs(refs []StoreRef) {
	sort.Slice(refs, func(i, j int) bool { return refs[i].less(refs[j]) })
}

// Store is the data-layer contract the GTM needs: load committed values to
// seed X_permanent mirrors, and apply a whole SST atomically. internal/ldbs
// satisfies it through the Adapter in this package's ldbsstore.go; MemStore
// is a trivial in-memory implementation for tests.
type Store interface {
	// Load returns the committed value at ref.
	Load(ref StoreRef) (sem.Value, error)
	// ApplySST atomically applies every write or none (a failed SST must
	// leave the database untouched). Constraint violations are reported as
	// errors and translate into GTM aborts.
	ApplySST(writes []SSTWrite) error
}

// BatchStore is the optional Store surface the SST executor uses when a
// worker finds several SSTs queued: apply their write sets in one store
// transaction (one lock pass, one durable commit) — all of them or none.
// On error the GTM falls back to applying each set through ApplySST, so
// implementations need not attribute failures to a specific set.
type BatchStore interface {
	ApplySSTBatch(sets [][]SSTWrite) error
}

// MemStore is an in-memory Store with optional per-ref validation hooks.
type MemStore struct {
	mu     sync.Mutex
	values map[StoreRef]sem.Value
	// Validate, when non-nil, is consulted for every SST write; returning
	// an error rejects the whole SST.
	Validate func(ref StoreRef, v sem.Value) error
	// FailNext, when > 0, makes that many subsequent SSTs fail (fault
	// injection for recovery tests).
	failNext int
	applied  int
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore {
	return &MemStore{values: make(map[StoreRef]sem.Value)}
}

// Seed sets the committed value at ref without an SST.
func (s *MemStore) Seed(ref StoreRef, v sem.Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.values[ref] = v
}

// Load implements Store.
func (s *MemStore) Load(ref StoreRef) (sem.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.values[ref]
	if !ok {
		return sem.Null(), nil
	}
	return v, nil
}

// FailNext arranges for the next n SSTs to fail.
func (s *MemStore) FailNext(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failNext = n
}

// Applied returns the number of successful SSTs.
func (s *MemStore) Applied() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// ValidateSST runs the per-ref validation hooks without applying anything
// (the MemStore counterpart of LDBSStore.ValidateSST).
func (s *MemStore) ValidateSST(writes []SSTWrite) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Validate == nil {
		return nil
	}
	for _, w := range writes {
		if err := s.Validate(w.Ref, w.Value); err != nil {
			return err
		}
	}
	return nil
}

// ApplySSTBatch implements BatchStore: every set validated first, then all
// applied, atomically with respect to other MemStore calls. One injected
// failure (FailNext) fails the whole batch.
func (s *MemStore) ApplySSTBatch(sets [][]SSTWrite) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failNext > 0 {
		s.failNext--
		return fmt.Errorf("core: memstore: injected SST failure")
	}
	if s.Validate != nil {
		for _, writes := range sets {
			for _, w := range writes {
				if err := s.Validate(w.Ref, w.Value); err != nil {
					return err
				}
			}
		}
	}
	for _, writes := range sets {
		for _, w := range writes {
			s.values[w.Ref] = w.Value
		}
		s.applied++
	}
	return nil
}

// ApplySST implements Store.
func (s *MemStore) ApplySST(writes []SSTWrite) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failNext > 0 {
		s.failNext--
		return fmt.Errorf("core: memstore: injected SST failure")
	}
	if s.Validate != nil {
		for _, w := range writes {
			if err := s.Validate(w.Ref, w.Value); err != nil {
				return err
			}
		}
	}
	for _, w := range writes {
		s.values[w.Ref] = w.Value
	}
	s.applied++
	return nil
}
