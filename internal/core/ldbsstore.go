package core

import (
	"context"
	"sort"
	"time"

	"preserial/internal/ldbs"
	"preserial/internal/sem"
)

// LDBSStore adapts the relational substrate (internal/ldbs) to the GTM's
// Store interface. Every SST becomes a short ldbs transaction executed
// under the engine's classical strict 2PL — exactly the paper's layering:
// the GTM guarantees atomicity and isolation, the LDBS consistency (CHECK
// constraints) and durability (WAL).
type LDBSStore struct {
	DB *ldbs.DB
	// SSTTimeout bounds each secure system transaction; zero means one
	// minute. SSTs only ever contend with each other for moments, so the
	// bound exists purely to convert substrate hangs into aborts.
	SSTTimeout time.Duration
	// UpsertTables lists tables whose SST writes create the row when it
	// does not exist (ordinary writes require it). The cross-shard commit
	// protocol's decision-marker table works this way: each marker row is
	// keyed by transaction id and springs into existence with the decided
	// SST.
	UpsertTables map[string]bool
}

// NewLDBSStore wraps a database.
func NewLDBSStore(db *ldbs.DB) *LDBSStore { return &LDBSStore{DB: db} }

// Load implements Store by reading the committed value.
func (s *LDBSStore) Load(ref StoreRef) (sem.Value, error) {
	return s.DB.ReadCommitted(ref.Table, ref.Key, ref.Column)
}

// ApplySST implements Store: all writes in one strictly-2PL transaction.
func (s *LDBSStore) ApplySST(writes []SSTWrite) error {
	timeout := s.SSTTimeout
	if timeout == 0 {
		timeout = time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	tx := s.DB.Begin()
	for _, w := range writes {
		var err error
		if s.UpsertTables[w.Ref.Table] {
			err = tx.Upsert(ctx, w.Ref.Table, w.Ref.Key, ldbs.Row{w.Ref.Column: w.Value})
		} else {
			err = tx.Set(ctx, w.Ref.Table, w.Ref.Key, w.Ref.Column, w.Value)
		}
		if err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit(ctx)
}

// ApplySSTBatch implements BatchStore: every set's writes in one strictly-2PL
// ldbs transaction — one lock-acquisition pass, one WAL frame, one fsync for
// the whole batch. The union is flattened into canonical StoreRef order
// (stable, so a later set's write to the same ref — impossible while
// committer slots are exclusive, but cheap to honor — lands last) before any
// lock is taken, preserving the SST↔SST deadlock-freedom argument.
func (s *LDBSStore) ApplySSTBatch(sets [][]SSTWrite) error {
	n := 0
	for _, writes := range sets {
		n += len(writes)
	}
	all := make([]SSTWrite, 0, n)
	for _, writes := range sets {
		all = append(all, writes...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Ref.less(all[j].Ref) })
	return s.ApplySST(all)
}

// ValidateSST checks every write against its table's schema (type and
// CHECK constraints) without applying anything. The cross-shard commit
// coordinator calls this before logging a commit decision: LDBS checks are
// pure value predicates, so a write set that validates now cannot fail a
// constraint at decide time — the committer slots held since prepare keep
// the values stable.
func (s *LDBSStore) ValidateSST(writes []SSTWrite) error {
	for _, w := range writes {
		schema, err := s.DB.Schema(w.Ref.Table)
		if err != nil {
			return err
		}
		if err := schema.CheckValue(w.Ref.Column, w.Value); err != nil {
			return err
		}
	}
	return nil
}
