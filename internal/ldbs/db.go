package ldbs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"preserial/internal/ldbs/store"
	"preserial/internal/ldbs/store/mem"
	"preserial/internal/obs"
	"preserial/internal/sem"
)

// Errors reported by the engine.
var (
	ErrNoTable    = errors.New("ldbs: no such table")
	ErrNoRow      = errors.New("ldbs: no such row")
	ErrNoColumn   = errors.New("ldbs: no such column")
	ErrRowExists  = errors.New("ldbs: row already exists")
	ErrConstraint = errors.New("ldbs: CHECK constraint violated")
	ErrKind       = errors.New("ldbs: value kind mismatch")
	ErrTxDone     = errors.New("ldbs: transaction already finished")
)

// Options configures a DB.
type Options struct {
	// WAL, when non-nil, receives the write-ahead log. If it also
	// implements Syncer (e.g. *os.File) every commit waits for a sync
	// covering it. Concurrent commits share syncs through the group-commit
	// coordinator: each transaction's records are appended contiguously
	// under the WAL lock, and the transaction returns once a sync covering
	// its commit LSN completes — a batch of one when nothing else is
	// committing.
	WAL io.Writer
	// SyncDelay adds a fixed pause to every WAL sync, emulating slow stable
	// storage (mobile-class flash syncs in milliseconds, not the tens of
	// microseconds a developer NVMe reports). Group commit amortizes the
	// delay across a batch exactly as it amortizes a real fsync. Zero (the
	// default) adds nothing.
	SyncDelay time.Duration
	// Obs, when non-nil, receives live engine metrics (WAL fsync count and
	// latency, lock waits and wait latency, deadlocks, group-commit batch
	// sizes) under ldbs_* names.
	Obs *obs.Registry
	// Store is the storage driver holding committed rows. Nil selects the
	// in-memory driver (the seed behavior). The DB does not close the
	// driver; whoever opened it owns its lifecycle (Persistence does this
	// for the drivers it opens).
	Store store.Driver
}

// Stats are monotonically increasing engine counters.
type Stats struct {
	Begun     uint64
	Committed uint64
	Aborted   uint64
	Deadlocks uint64
}

// DB is an embedded relational engine: named tables of rows keyed by string
// primary keys, strict two-phase locking, deferred writes, WAL-before-apply
// commits. All methods are safe for concurrent use.
type DB struct {
	mu      sync.RWMutex
	schemas map[string]Schema
	// driver holds the committed rows behind the store contract (mem or
	// disk). All row access goes through it; db.mu still provides the
	// engine-level atomicity (a batch installs under mu's write lock, so
	// mu's read side observes whole commits).
	driver store.Driver

	// ckptMu serializes checkpoints against commits: a commit holds the
	// read side across its log-then-apply sequence so a snapshot can never
	// observe applied-but-truncatable (or logged-but-unapplied) state.
	ckptMu sync.RWMutex

	locks   *lockManager
	log     *wal
	indexes map[indexKey]*index
	nextTx  atomic.Uint64

	// commitSeq counts applied write batches (guarded by mu); snapMu and
	// snap form the row-version snapshot registry (snapshot.go). snapMu is
	// a leaf lock ordered strictly after mu.
	commitSeq uint64
	snapMu    sync.Mutex
	snap      snapState

	committed atomic.Uint64
	aborted   atomic.Uint64
	begun     atomic.Uint64
	deadlocks atomic.Uint64

	obsDeadlocks    *obs.Counter // nil unless Options.Obs
	obsSnapsOpened  *obs.Counter
	obsSnapReads    *obs.Counter
	obsVersionsGCed *obs.Counter
}

// Open creates an empty database.
func Open(opts Options) *DB {
	db := &DB{
		schemas: make(map[string]Schema),
		driver:  opts.Store,
		locks:   newLockManager(),
	}
	if db.driver == nil {
		db.driver = mem.New(store.Config{Obs: opts.Obs})
	}
	if opts.WAL != nil {
		db.log = newWAL(opts.WAL)
		db.log.syncDelay = opts.SyncDelay
	}
	if opts.Obs != nil {
		db.obsDeadlocks = opts.Obs.Counter(obs.NameLDBSDeadlocks, "Lock waits refused because they would close a wait-for cycle.")
		db.obsSnapsOpened = opts.Obs.Counter(obs.NameLDBSSnapshotsOpened, "Row-version snapshots opened.")
		db.obsSnapReads = opts.Obs.Counter(obs.NameLDBSSnapshotReads, "Lock-free snapshot row reads.")
		db.obsVersionsGCed = opts.Obs.Counter(obs.NameLDBSRowVersionsGCed, "Retained row pre-images released by snapshot GC.")
		db.locks.waits = opts.Obs.Counter(obs.NameLDBSLockWaits, "Lock acquisitions that had to block.")
		db.locks.waitLatency = opts.Obs.Histogram(obs.NameLDBSLockWaitSeconds, "Blocking lock acquisition latency.", nil)
		if db.log != nil {
			db.log.syncs = opts.Obs.Counter(obs.NameWALFsyncs, "WAL flushes synced to stable storage.")
			db.log.syncLatency = opts.Obs.Histogram(obs.NameWALFsyncSeconds, "WAL fsync latency.", nil)
			db.log.appends = opts.Obs.Counter(obs.NameWALRecords, "WAL records appended.")
			db.log.batchSize = opts.Obs.Histogram(obs.NameWALGroupCommitBatch,
				"Transactions made durable per shared WAL sync (1 unit = 1 transaction).",
				[]float64{1, 2, 4, 8, 16, 32, 64, 128})
		}
	}
	return db
}

// CreateTable registers a table. Schemas are code-defined and therefore not
// logged; recovery requires the caller to re-create tables before replay.
func (db *DB) CreateTable(s Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.schemas[s.Table]; ok {
		return fmt.Errorf("ldbs: table %q already exists", s.Table)
	}
	// Driver CreateTable is idempotent: a persistent store reopened by
	// Persistence already holds the table (and its rows).
	if _, err := db.driver.CreateTable(s.Table); err != nil {
		return err
	}
	db.schemas[s.Table] = s
	return nil
}

// StoreStats returns the storage driver's counters and gauges (cache
// hits, page I/O, checkpoint timings). For the mem driver most fields
// are zero.
func (db *DB) StoreStats() store.Stats {
	return db.driver.Stats()
}

// StoreDriver exposes the storage driver (read-only use: stats,
// persistence capability checks). Callers must not close it.
func (db *DB) StoreDriver() store.Driver { return db.driver }

// Schema returns the schema of a table.
func (db *DB) Schema(table string) (Schema, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.schemas[table]
	if !ok {
		return Schema{}, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	return s, nil
}

// Tables returns the table names in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.schemas))
	for t := range db.schemas {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the engine counters.
func (db *DB) Stats() Stats {
	return Stats{
		Begun:     db.begun.Load(),
		Committed: db.committed.Load(),
		Aborted:   db.aborted.Load(),
		Deadlocks: db.deadlocks.Load(),
	}
}

// writeOp is one entry of a transaction's deferred write set.
type writeOp struct {
	typ    recType
	table  string
	key    string
	column string
	value  sem.Value
	row    Row
}

// Tx is a database transaction. A Tx is not safe for concurrent use by
// multiple goroutines (the usual contract for transaction handles).
type Tx struct {
	db     *DB
	id     uint64
	writes []writeOp
	done   bool
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	db.begun.Add(1)
	return &Tx{db: db, id: db.nextTx.Add(1)}
}

// ID returns the engine-assigned transaction id.
func (tx *Tx) ID() uint64 { return tx.id }

func (tx *Tx) check() error {
	if tx.done {
		return ErrTxDone
	}
	return nil
}

// wrapLockErr counts deadlocks and annotates lock failures.
func (tx *Tx) wrapLockErr(err error) error {
	if errors.Is(err, ErrDeadlock) {
		tx.db.deadlocks.Add(1)
		if tx.db.obsDeadlocks != nil {
			tx.db.obsDeadlocks.Inc()
		}
	}
	return err
}

// lockRow acquires the table intent lock and the row lock.
func (tx *Tx) lockRow(ctx context.Context, table, key string, mode LockMode) error {
	intent := LockIS
	if mode == LockX {
		intent = LockIX
	}
	if err := tx.db.locks.Acquire(ctx, tx.id, resource{Table: table}, intent); err != nil {
		return tx.wrapLockErr(err)
	}
	if err := tx.db.locks.Acquire(ctx, tx.id, resource{Table: table, Key: key}, mode); err != nil {
		return tx.wrapLockErr(err)
	}
	return nil
}

// overlayRow applies tx's buffered writes for (table, key) to the committed
// row (nil if deleted/absent). base must already be a private copy.
func (tx *Tx) overlayRow(table, key string, base Row, exists bool) (Row, bool) {
	for _, w := range tx.writes {
		if w.table != table || w.key != key {
			continue
		}
		switch w.typ {
		case recUpsertRow:
			base = w.row.clone()
			exists = true
		case recDeleteRow:
			base = nil
			exists = false
		case recSetCol:
			if !exists {
				continue // write to a row deleted earlier in this tx
			}
			if base == nil {
				base = make(Row)
			}
			base[w.column] = w.value
		}
	}
	return base, exists
}

// committedRow returns a copy of the committed row.
func (db *DB) committedRow(table, key string) (Row, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tbl, ok := db.driver.Table(table)
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	r, ok, err := tbl.Get(key)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	// Driver rows are immutable by contract; callers mutate freely.
	return Row(r).clone(), true, nil
}

// GetRow returns the row under a shared lock, with the transaction's own
// pending writes applied.
func (tx *Tx) GetRow(ctx context.Context, table, key string) (Row, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	if err := tx.lockRow(ctx, table, key, LockS); err != nil {
		return nil, err
	}
	base, exists, err := tx.db.committedRow(table, key)
	if err != nil {
		return nil, err
	}
	row, exists := tx.overlayRow(table, key, base, exists)
	if !exists {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoRow, table, key)
	}
	return row, nil
}

// Get returns one column of a row under a shared lock.
func (tx *Tx) Get(ctx context.Context, table, key, column string) (sem.Value, error) {
	row, err := tx.GetRow(ctx, table, key)
	if err != nil {
		return sem.Value{}, err
	}
	s, err := tx.db.Schema(table)
	if err != nil {
		return sem.Value{}, err
	}
	if _, ok := s.column(column); !ok {
		return sem.Value{}, fmt.Errorf("%w: %s.%s", ErrNoColumn, table, column)
	}
	return row[column], nil
}

// validateKey rejects keys the storage contract cannot hold. Checked at
// write-buffering time so a commit's driver apply can never fail on it
// after the WAL already holds the transaction.
func validateKey(key string) error {
	if len(key) > store.MaxKeyLen {
		return fmt.Errorf("ldbs: %w (%d bytes, max %d)", store.ErrKeyTooLarge, len(key), store.MaxKeyLen)
	}
	return nil
}

// validateValue checks kind and constraints of a single column value.
func validateValue(s Schema, column string, v sem.Value) error {
	def, ok := s.column(column)
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, column)
	}
	if !v.IsNull() && v.Kind() != def.Kind {
		return fmt.Errorf("%w: %s.%s wants %s, got %s", ErrKind, s.Table, column, def.Kind, v.Kind())
	}
	for _, ck := range s.Checks {
		if ck.Column == column && !ck.Holds(v) {
			return fmt.Errorf("%w: %s on %s.%s rejects %s", ErrConstraint, ck, s.Table, column, v)
		}
	}
	return nil
}

// Set updates one column of an existing row under an exclusive lock. The
// new value is validated against the column kind and CHECK constraints
// immediately, so an SST carrying a reconciled value that violates an
// integrity constraint fails here (the abort source discussed in the
// paper's Section VII).
func (tx *Tx) Set(ctx context.Context, table, key, column string, v sem.Value) error {
	if err := tx.check(); err != nil {
		return err
	}
	s, err := tx.db.Schema(table)
	if err != nil {
		return err
	}
	if err := validateValue(s, column, v); err != nil {
		return err
	}
	if err := validateKey(key); err != nil {
		return err
	}
	if err := tx.lockRow(ctx, table, key, LockX); err != nil {
		return err
	}
	base, exists, err := tx.db.committedRow(table, key)
	if err != nil {
		return err
	}
	if _, exists = tx.overlayRow(table, key, base, exists); !exists {
		return fmt.Errorf("%w: %s/%s", ErrNoRow, table, key)
	}
	tx.writes = append(tx.writes, writeOp{typ: recSetCol, table: table, key: key, column: column, value: v})
	return nil
}

// validateRow checks every column of a row against the schema.
func validateRow(s Schema, row Row) error {
	for col, v := range row {
		if err := validateValue(s, col, v); err != nil {
			return err
		}
	}
	return nil
}

// Insert creates a new row under an exclusive lock; it fails if the row
// already exists (including uncommitted inserts by the same transaction).
func (tx *Tx) Insert(ctx context.Context, table, key string, row Row) error {
	if err := tx.check(); err != nil {
		return err
	}
	s, err := tx.db.Schema(table)
	if err != nil {
		return err
	}
	if err := validateRow(s, row); err != nil {
		return err
	}
	if err := validateKey(key); err != nil {
		return err
	}
	if err := tx.lockRow(ctx, table, key, LockX); err != nil {
		return err
	}
	base, exists, err := tx.db.committedRow(table, key)
	if err != nil {
		return err
	}
	if _, exists = tx.overlayRow(table, key, base, exists); exists {
		return fmt.Errorf("%w: %s/%s", ErrRowExists, table, key)
	}
	tx.writes = append(tx.writes, writeOp{typ: recUpsertRow, table: table, key: key, row: row.clone()})
	return nil
}

// Upsert creates or replaces a row under an exclusive lock.
func (tx *Tx) Upsert(ctx context.Context, table, key string, row Row) error {
	if err := tx.check(); err != nil {
		return err
	}
	s, err := tx.db.Schema(table)
	if err != nil {
		return err
	}
	if err := validateRow(s, row); err != nil {
		return err
	}
	if err := validateKey(key); err != nil {
		return err
	}
	if err := tx.lockRow(ctx, table, key, LockX); err != nil {
		return err
	}
	tx.writes = append(tx.writes, writeOp{typ: recUpsertRow, table: table, key: key, row: row.clone()})
	return nil
}

// Delete removes a row under an exclusive lock.
func (tx *Tx) Delete(ctx context.Context, table, key string) error {
	if err := tx.check(); err != nil {
		return err
	}
	if err := tx.lockRow(ctx, table, key, LockX); err != nil {
		return err
	}
	base, exists, err := tx.db.committedRow(table, key)
	if err != nil {
		return err
	}
	if _, exists = tx.overlayRow(table, key, base, exists); !exists {
		return fmt.Errorf("%w: %s/%s", ErrNoRow, table, key)
	}
	tx.writes = append(tx.writes, writeOp{typ: recDeleteRow, table: table, key: key})
	return nil
}

// Scan visits every row of the table in key order under a table-level
// shared lock, with the transaction's own writes applied. The visit
// function returns false to stop early.
func (tx *Tx) Scan(ctx context.Context, table string, visit func(key string, row Row) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	if err := tx.db.locks.Acquire(ctx, tx.id, resource{Table: table}, LockS); err != nil {
		return tx.wrapLockErr(err)
	}
	// Phase 1: collect the committed key set. The table-level S lock just
	// acquired blocks every writer (writers need IX) until this
	// transaction finishes, so the committed state of the table cannot
	// change between the key collection and the per-key reads below.
	tx.db.mu.RLock()
	tbl, ok := tx.db.driver.Table(table)
	if !ok {
		tx.db.mu.RUnlock()
		return fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	var keys []string
	err := tbl.Scan(func(k string, _ store.Row) bool {
		keys = append(keys, k)
		return true
	})
	tx.db.mu.RUnlock()
	if err != nil {
		return err
	}

	// Include keys created by this transaction's own writes.
	committed := make(map[string]bool, len(keys))
	for _, k := range keys {
		committed[k] = true
	}
	for _, w := range tx.writes {
		if w.table == table && !committed[w.key] {
			keys = append(keys, w.key)
			committed[w.key] = true
		}
	}
	sort.Strings(keys)
	seen := make(map[string]bool, len(keys))
	// Phase 2: read row by row, overlaying the private write set. Reading
	// per key (rather than snapshotting every row up front) keeps memory
	// bounded when the table lives on disk and dwarfs RAM.
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		base, exists, err := tx.db.committedRow(table, k)
		if err != nil {
			return err
		}
		row, exists := tx.overlayRow(table, k, base, exists)
		if !exists {
			continue
		}
		if !visit(k, row) {
			return nil
		}
	}
	return nil
}

// Commit logs the write set (force policy: the WAL is durable before the
// store is touched), applies it to the store, and releases all locks. The
// whole recBegin…recCommit frame is appended under one WAL lock hold, so
// concurrent commits never interleave records; durability comes from a
// shared group-commit sync. After a flush or sync failure the WAL is
// poisoned and every subsequent Commit fails fast with ErrWALPoisoned: the
// failed transaction's tail is in doubt (a partially flushed recCommit
// could be redone by recovery even though Commit returned an error), and
// refusing later commits keeps any in-doubt transaction last in the log.
func (tx *Tx) Commit(ctx context.Context) error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.done = true
	db := tx.db
	commitLSN, err := tx.commitLocked()
	if err != nil {
		return err
	}
	// Semi-sync replication, when armed, holds the acknowledgment until a
	// follower confirms the commit LSN (or the wait degrades). This runs
	// after ckptMu is released so a slow follower can never stall a
	// checkpoint or a snapshot resync.
	if commitLSN != 0 && db.log != nil {
		db.log.waitReplAck(commitLSN)
	}
	return nil
}

// commitLocked is the ckptMu-covered half of Commit: log-then-apply, so a
// checkpoint can never observe applied-but-truncatable (or
// logged-but-unapplied) state. Returns the commit LSN (0 when nothing was
// logged).
//
// ckptMu is the root of the ldbs lock order: Commit and Checkpoint hold it
// across the WAL append (wal.mu, and wal.syncMu for the group-commit
// durability wait, with the replication hub's publish nested inside), the
// in-memory apply (DB.mu, DB.snapMu) and the lock-table release.
//
//gtmlint:lockorder ldbs.DB.ckptMu -> ldbs.wal.mu
//gtmlint:lockorder ldbs.DB.ckptMu -> ldbs.wal.syncMu
//gtmlint:lockorder ldbs.DB.ckptMu -> ldbs.replHub.mu
//gtmlint:lockorder ldbs.DB.ckptMu -> ldbs.DB.mu
//gtmlint:lockorder ldbs.DB.ckptMu -> ldbs.DB.snapMu
//gtmlint:lockorder ldbs.DB.ckptMu -> ldbs.lockManager.mu
func (tx *Tx) commitLocked() (uint64, error) {
	db := tx.db
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	var commitLSN uint64
	if db.log != nil && len(tx.writes) > 0 {
		recs := make([]walRecord, 0, len(tx.writes)+2)
		recs = append(recs, walRecord{Type: recBegin, TxID: tx.id})
		for _, w := range tx.writes {
			recs = append(recs, walRecord{Type: w.typ, TxID: tx.id, Table: w.table,
				Key: w.key, Column: w.column, Value: w.value, Row: w.row})
		}
		recs = append(recs, walRecord{Type: recCommit, TxID: tx.id})
		lsn, err := db.log.AppendGroup(recs)
		if err != nil {
			db.abort(tx)
			return 0, err
		}
		if err = db.log.WaitDurable(lsn); err != nil {
			db.abort(tx)
			return 0, err
		}
		commitLSN = lsn
	}
	if err := db.applyWrites(tx.writes); err != nil {
		// The WAL already holds the commit; only the store apply failed.
		// Surface the failure — restart recovery redoes the logged writes.
		db.locks.ReleaseAll(tx.id)
		db.aborted.Add(1)
		return 0, err
	}
	db.locks.ReleaseAll(tx.id)
	db.committed.Add(1)
	return commitLSN, nil
}

// abort rolls the transaction back internally (write set discarded).
func (db *DB) abort(tx *Tx) {
	db.locks.ReleaseAll(tx.id)
	tx.writes = nil
	db.aborted.Add(1)
}

// Rollback discards the write set and releases all locks. Rolling back a
// finished transaction is a no-op.
func (tx *Tx) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	tx.db.abort(tx)
}

// applyWrites installs a committed write set into the store, retaining
// pre-images for open row-version snapshots. The write set is folded to
// one final row state per touched key (so later ops in the set observe
// earlier ones) and handed to the driver as a single atomic batch.
// Version retention takes the snapshot registry's lock under the store
// lock; snapshot readers never nest the other way (they pin under snapMu
// alone).
//
// A driver error after the WAL already holds the commit leaves the store
// behind the log; the sticky-failure drivers refuse further work and
// recovery redoes the logged writes on restart.
//
//gtmlint:lockorder ldbs.DB.mu -> ldbs.DB.snapMu
func (db *DB) applyWrites(writes []writeOp) error {
	if len(writes) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.commitSeq++
	type tk struct{ table, key string }
	pending := make(map[tk]Row, len(writes)) // folded end state per key
	order := make([]tk, 0, len(writes))      // keys in first-touch order
	for _, w := range writes {
		tbl, ok := db.driver.Table(w.table)
		if !ok {
			continue // table never created on this node; nothing to apply to
		}
		k := tk{w.table, w.key}
		old, touched := pending[k]
		existed := old != nil
		if !touched {
			r, ok, err := tbl.Get(w.key)
			if err != nil {
				return err
			}
			old, existed = Row(r), ok
			order = append(order, k)
		}
		db.retainVersionLocked(w.table, w.key, old, existed, db.commitSeq)
		var next Row
		switch w.typ {
		case recSetCol:
			if old != nil {
				next = old.clone()
				next[w.column] = w.value
			}
		case recUpsertRow:
			next = w.row.clone()
		case recDeleteRow:
			next = nil
		}
		pending[k] = next
		db.maintainIndexesLocked(w, old)
	}
	if len(order) == 0 {
		return nil
	}
	batch := make([]store.Write, 0, len(order))
	for _, k := range order {
		batch = append(batch, store.Write{Table: k.table, Key: k.key, Row: store.Row(pending[k])})
	}
	if err := db.driver.Apply(batch); err != nil {
		return fmt.Errorf("ldbs: apply committed writes: %w", err)
	}
	return nil
}

// NumRows returns the committed row count of a table.
func (db *DB) NumRows(table string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tbl, ok := db.driver.Table(table)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	return tbl.Len(), nil
}

// ReadCommitted returns the committed value of one column without any
// locking. It is the dirty-read primitive the GTM uses to refresh
// X_permanent mirrors; user transactions should use Get.
func (db *DB) ReadCommitted(table, key, column string) (sem.Value, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tbl, ok := db.driver.Table(table)
	if !ok {
		return sem.Value{}, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	r, ok, err := tbl.Get(key)
	if err != nil {
		return sem.Value{}, err
	}
	if !ok {
		return sem.Value{}, fmt.Errorf("%w: %s/%s", ErrNoRow, table, key)
	}
	return r[column], nil
}
