package ldbs

import (
	"context"
	"fmt"
	"sort"

	"preserial/internal/ldbs/store"
	"preserial/internal/sem"
)

// Secondary hash indexes: CreateIndex builds an equality index over one
// column; Select consults it automatically when the WHERE clause contains
// an equality predicate on an indexed column, turning the O(table) scan
// into an O(matches) lookup. Indexes are maintained at commit time, under
// the same mutex that installs the write set, so they are always consistent
// with the committed store. Isolation is unchanged — the indexed path takes
// the same table-level shared lock as a scan.
//
// Indexes are in-memory metadata (like schemas): after recovery, re-create
// them once the data is loaded.

// index is one equality index: column value → set of row keys.
type index struct {
	table   string
	column  string
	entries map[sem.Value]map[string]bool
}

func (ix *index) add(key string, v sem.Value) {
	if v.IsNull() {
		return // nulls are not indexed (they never match predicates)
	}
	set := ix.entries[v]
	if set == nil {
		set = make(map[string]bool)
		ix.entries[v] = set
	}
	set[key] = true
}

func (ix *index) remove(key string, v sem.Value) {
	if v.IsNull() {
		return
	}
	if set := ix.entries[v]; set != nil {
		delete(set, key)
		if len(set) == 0 {
			delete(ix.entries, v)
		}
	}
}

// lookup returns the keys with column = v, sorted.
func (ix *index) lookup(v sem.Value) []string {
	set := ix.entries[v]
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CreateIndex builds an equality index on table.column from the current
// committed rows and maintains it on every subsequent commit.
func (db *DB) CreateIndex(table, column string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.schemas[table]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	if _, ok := s.column(column); !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoColumn, table, column)
	}
	if db.indexes == nil {
		db.indexes = make(map[indexKey]*index)
	}
	ik := indexKey{table, column}
	if _, ok := db.indexes[ik]; ok {
		return fmt.Errorf("ldbs: index on %s.%s already exists", table, column)
	}
	ix := &index{table: table, column: column, entries: make(map[sem.Value]map[string]bool)}
	if tbl, found := db.driver.Table(table); found {
		if err := tbl.Scan(func(key string, row store.Row) bool {
			ix.add(key, row[column])
			return true
		}); err != nil {
			return err
		}
	}
	db.indexes[ik] = ix
	return nil
}

// Indexes returns the indexed (table, column) pairs, sorted.
func (db *DB) Indexes() [][2]string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([][2]string, 0, len(db.indexes))
	for ik := range db.indexes {
		out = append(out, [2]string{ik.table, ik.column})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// indexKey identifies an index.
type indexKey struct {
	table  string
	column string
}

// maintainIndexesLocked updates the indexes for one applied write. Caller
// holds db.mu; oldRow is the row before the write (nil if absent).
func (db *DB) maintainIndexesLocked(w writeOp, oldRow Row) {
	for ik, ix := range db.indexes {
		if ik.table != w.table {
			continue
		}
		switch w.typ {
		case recSetCol:
			if w.column != ik.column {
				continue
			}
			if oldRow != nil {
				ix.remove(w.key, oldRow[ik.column])
			}
			ix.add(w.key, w.value)
		case recUpsertRow:
			if oldRow != nil {
				ix.remove(w.key, oldRow[ik.column])
			}
			ix.add(w.key, w.row[ik.column])
		case recDeleteRow:
			if oldRow != nil {
				ix.remove(w.key, oldRow[ik.column])
			}
		}
	}
}

// indexedLookup finds an applicable index for the query and returns the
// candidate keys for its equality predicate. ok=false means no index
// applies and the caller must scan.
func (db *DB) indexedLookup(q Query) (keys []string, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, p := range q.Where {
		if p.Op != CmpEQ {
			continue
		}
		if ix, found := db.indexes[indexKey{q.Table, p.Column}]; found {
			return ix.lookup(p.Value), true
		}
	}
	return nil, false
}

// SelectIndexed is Select with index acceleration: when an equality
// predicate hits an index, only the candidate rows are read (each
// re-checked against the full predicate under its row lock). Without an
// applicable index it falls back to Select. The transaction's own writes
// are honored in both paths.
func (tx *Tx) SelectIndexed(ctx context.Context, q Query) ([]KeyRow, error) {
	s, err := tx.db.Schema(q.Table)
	if err != nil {
		return nil, err
	}
	if err := q.validate(s); err != nil {
		return nil, err
	}
	candidates, ok := tx.db.indexedLookup(q)
	if !ok {
		return tx.Select(ctx, q)
	}
	// Same isolation as a scan: table-level shared lock.
	if err := tx.db.locks.Acquire(ctx, tx.id, resource{Table: q.Table}, LockS); err != nil {
		return nil, tx.wrapLockErr(err)
	}
	// The committed index may miss rows this transaction wrote; add keys
	// from the private write set.
	seen := make(map[string]bool, len(candidates))
	for _, k := range candidates {
		seen[k] = true
	}
	tx.writtenKeys(q.Table, func(k string) {
		if !seen[k] {
			candidates = append(candidates, k)
			seen[k] = true
		}
	})
	sort.Strings(candidates)

	var out []KeyRow
	for _, key := range candidates {
		base, exists, err := tx.db.committedRow(q.Table, key)
		if err != nil {
			return nil, err
		}
		row, exists := tx.overlayRow(q.Table, key, base, exists)
		if !exists || !q.matches(row) {
			continue
		}
		out = append(out, KeyRow{Key: key, Row: row})
		if q.Limit > 0 && len(out) == q.Limit {
			break
		}
	}
	return out, nil
}
