package ldbs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"preserial/internal/ldbs/store"
	"preserial/internal/obs"
)

// Persistence manages a database directory: the storage driver's files
// plus the live write-ahead log. Open recovers state-then-WAL; Checkpoint
// makes the store durable and truncates the log, bounding recovery time.
//
// With the default mem driver the directory holds the seed layout:
//
//	dir/
//	  CHECKPOINT      last durable snapshot (WAL record format)
//	  WAL             records since the checkpoint
//
// With a persistent driver (Store: "disk") the page file replaces the
// snapshot:
//
//	dir/
//	  STORE           page file; superblock = last durable checkpoint
//	  WAL             records since the superblock advanced
//
// Switching a directory from mem to disk migrates transparently: the
// legacy CHECKPOINT (if any) and the WAL are replayed into the page file
// and the first Checkpoint retires the CHECKPOINT file.
type Persistence struct {
	Dir string

	// Store selects the storage driver by registered name ("mem", "disk").
	// Empty means "mem" (the seed behavior).
	Store string

	// PageCacheBytes bounds the disk driver's page cache (0 = driver
	// default). Ignored by the mem driver.
	PageCacheBytes int64

	// PageSize sets the disk driver's page size when creating a store
	// (0 = driver default). Ignored by the mem driver.
	PageSize int

	// Obs, when non-nil, is passed to the recovered DB (see Options.Obs)
	// and to the storage driver (store_* metrics).
	Obs *obs.Registry

	wal    *os.File
	driver store.Driver
}

// checkpoint / wal file names.
const (
	checkpointName = "CHECKPOINT"
	walName        = "WAL"
)

// Open recovers the database from the directory (creating it if needed)
// and returns a DB whose commits append to the live WAL. Schemas are
// code-defined: pass every table the log may reference.
func (p *Persistence) Open(schemas []Schema) (*DB, error) {
	if p.Dir == "" {
		return nil, errors.New("ldbs: Persistence.Dir is empty")
	}
	if err := os.MkdirAll(p.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ldbs: create dir: %w", err)
	}
	name := p.Store
	if name == "" {
		name = "mem"
	}
	driver, err := store.Open(name, store.Config{
		Dir:        p.Dir,
		PageSize:   p.PageSize,
		CacheBytes: p.PageCacheBytes,
		Obs:        p.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("ldbs: open %s store: %w", name, err)
	}

	walFile, err := os.OpenFile(filepath.Join(p.Dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		driver.Close()
		return nil, fmt.Errorf("ldbs: open WAL: %w", err)
	}
	db := Open(Options{WAL: walFile, Obs: p.Obs, Store: driver})
	fail := func(err error) (*DB, error) {
		walFile.Close()
		driver.Close()
		return nil, err
	}
	for _, s := range schemas {
		if err := db.CreateTable(s); err != nil {
			return fail(err)
		}
	}
	// Redo on top of whatever the driver already holds: first the legacy
	// snapshot file (mem driver's checkpoint, or a mem→disk migration),
	// then the WAL tail. Records the driver captured at its last
	// checkpoint re-apply idempotently — they carry absolute values.
	if err := replayFile(db, filepath.Join(p.Dir, checkpointName)); err != nil {
		return fail(err)
	}
	if err := replayFile(db, filepath.Join(p.Dir, walName)); err != nil {
		return fail(err)
	}
	p.wal = walFile
	p.driver = driver
	return db, nil
}

// replayFile applies one log file if it exists.
func replayFile(db *DB, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ldbs: open %s: %w", path, err)
	}
	defer f.Close()
	if _, err := db.ReplayWAL(f); err != nil {
		return fmt.Errorf("ldbs: replay %s: %w", path, err)
	}
	return nil
}

// Checkpoint makes the database's committed state durable and truncates
// the WAL. For the mem driver that means writing a fresh snapshot file
// (temp file, fsync, rename); a persistent driver instead flushes its
// dirty pages and advances its superblock. Either way the durable state
// covers everything the WAL held before the truncation — the crash-safe
// ordering gtmlint/durability checks.
func (p *Persistence) Checkpoint(db *DB) error {
	if p.wal == nil {
		return errors.New("ldbs: Checkpoint before Open")
	}
	// Block commits for the duration: the durable state and the truncation
	// must see the same committed rows.
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if p.driver != nil && p.driver.Persistent() {
		if err := p.driver.Checkpoint(); err != nil {
			return err
		}
		// The page file now covers everything; a legacy snapshot from a
		// mem→disk migration is dead weight.
		if err := os.Remove(filepath.Join(p.Dir, checkpointName)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("ldbs: remove legacy checkpoint: %w", err)
		}
	} else {
		tmp, err := os.CreateTemp(p.Dir, "ckpt-*")
		if err != nil {
			return fmt.Errorf("ldbs: checkpoint temp: %w", err)
		}
		tmpName := tmp.Name()
		defer os.Remove(tmpName) // no-op after the rename
		if err := db.WriteSnapshot(tmp); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmpName, filepath.Join(p.Dir, checkpointName)); err != nil {
			return fmt.Errorf("ldbs: install checkpoint: %w", err)
		}
		if err := syncDir(p.Dir); err != nil {
			return err
		}
	}
	// The durable state covers everything; the log can restart empty.
	if err := p.wal.Truncate(0); err != nil {
		return fmt.Errorf("ldbs: truncate WAL: %w", err)
	}
	if _, err := p.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("ldbs: rewind WAL: %w", err)
	}
	return nil
}

// Close releases the WAL file handle and the storage driver.
func (p *Persistence) Close() error {
	var err error
	if p.wal != nil {
		err = p.wal.Close()
		p.wal = nil
	}
	if p.driver != nil {
		if cerr := p.driver.Close(); err == nil {
			err = cerr
		}
		p.driver = nil
	}
	return err
}

// syncDir fsyncs a directory so a rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ldbs: sync dir: %w", err)
	}
	return nil
}
