// Package chaos soaks the full middleware stack — LDBS with WAL, GTM,
// wire server — under injected network faults and crash-restarts, and
// checks the one invariant that matters for a booking system: seats are
// conserved. Every acknowledged booking is durable exactly once; no lost
// response, reconnect, retry or server crash may book a seat twice or
// leak one.
//
// The harness runs the whole stack in-process behind a faultnet.Proxy so a
// "crash" is: sever every connection, tear the server down, reopen the
// same WAL directory, and repoint the proxy — exactly the sequence a
// supervisor restart produces, minus the fork/exec.
package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"preserial/internal/core"
	"preserial/internal/faultnet"
	"preserial/internal/ldbs"
	"preserial/internal/ldbs/store"
	_ "preserial/internal/ldbs/store/disk" // register the disk driver for StoreConfig
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// Harness owns one stack generation at a time plus the pieces that survive
// crashes: the data directory, the metrics registry (its counters
// accumulate across generations), and the client-facing proxy.
type Harness struct {
	dir        string
	objects    int
	seats      int64
	store      string // storage driver name ("" = mem)
	cacheBytes int64  // disk driver page-cache budget (0 = default)
	pageSize   int    // disk driver page size (0 = default)
	mopts      []core.Option
	Reg        *obs.Registry
	Proxy      *faultnet.Proxy

	mu        sync.Mutex
	pers      *ldbs.Persistence
	db        *ldbs.DB
	m         *core.Manager
	srv       *wire.Server
	serveDone chan error
}

// NewHarness recovers (or creates) the stack in dir with `objects` seat
// counters at `seats` each, and fronts it with a fault proxy configured by
// cfg. Clients must dial h.Addr().
func NewHarness(dir string, objects int, seats int64, cfg faultnet.Config) (*Harness, error) {
	return NewHarnessOpts(dir, objects, seats, cfg)
}

// NewHarnessOpts is NewHarness with extra Manager options (SST executors,
// …) applied to every recovered generation.
func NewHarnessOpts(dir string, objects int, seats int64, cfg faultnet.Config, mopts ...core.Option) (*Harness, error) {
	return NewHarnessStore(dir, objects, seats, cfg, StoreConfig{}, mopts...)
}

// StoreConfig selects the storage driver a harness recovers through.
// The zero value is the seed behavior: the mem driver with snapshot
// checkpoints.
type StoreConfig struct {
	Driver         string // "mem" (default) or "disk"
	PageCacheBytes int64  // disk page-cache budget, 0 = driver default
	PageSize       int    // disk page size, 0 = driver default
}

// NewHarnessStore is NewHarnessOpts with an explicit storage driver, so
// the crash soaks can run the same conservation oracle over the disk
// engine under page-cache pressure.
func NewHarnessStore(dir string, objects int, seats int64, cfg faultnet.Config, sc StoreConfig, mopts ...core.Option) (*Harness, error) {
	h := &Harness{dir: dir, objects: objects, seats: seats,
		store: sc.Driver, cacheBytes: sc.PageCacheBytes, pageSize: sc.PageSize,
		mopts: mopts, Reg: obs.NewRegistry()}
	if err := h.start(); err != nil {
		return nil, err
	}
	p, err := faultnet.New(h.srv.Addr().String(), cfg)
	if err != nil {
		h.stop()
		return nil, err
	}
	h.Proxy = p
	return h, nil
}

// Addr is the client-facing (proxied) server address.
func (h *Harness) Addr() string { return h.Proxy.Addr() }

// Object returns the GTM object id of seat counter i.
func (h *Harness) Object(i int) string { return fmt.Sprintf("seat/S%d", i) }

// schemas describes the single demo table.
func (h *Harness) schemas() []ldbs.Schema {
	return []ldbs.Schema{{
		Table:   "Seats",
		Columns: []ldbs.ColumnDef{{Name: "Free", Kind: sem.KindInt64}},
		Checks:  []ldbs.Check{{Column: "Free", Op: ldbs.CmpGE, Bound: sem.Int(0)}},
	}}
}

// start brings up one stack generation from whatever the directory holds.
func (h *Harness) start() error {
	pers := &ldbs.Persistence{Dir: h.dir, Obs: h.Reg,
		Store: h.store, PageCacheBytes: h.cacheBytes, PageSize: h.pageSize}
	db, err := pers.Open(h.schemas())
	if err != nil {
		return err
	}
	ctx := context.Background()
	tx := db.Begin()
	for i := 0; i < h.objects; i++ {
		key := fmt.Sprintf("S%d", i)
		if _, err := db.ReadCommitted("Seats", key, "Free"); err == nil {
			continue // survived recovery
		}
		if err := tx.Insert(ctx, "Seats", key, ldbs.Row{"Free": sem.Int(h.seats)}); err != nil {
			tx.Rollback()
			pers.Close()
			return err
		}
	}
	if err := tx.Commit(ctx); err != nil {
		pers.Close()
		return err
	}
	// The metric set accumulates across generations, like the rest of Reg.
	opts := append([]core.Option{
		core.WithObservability(core.NewObservability(h.Reg, 0)),
	}, h.mopts...)
	m := core.NewManager(core.NewLDBSStore(db), opts...)
	for i := 0; i < h.objects; i++ {
		key := fmt.Sprintf("S%d", i)
		if err := m.RegisterAtomicObject(core.ObjectID(h.Object(i)),
			core.StoreRef{Table: "Seats", Key: key, Column: "Free"}); err != nil {
			m.Close()
			pers.Close()
			return err
		}
	}
	srv := wire.NewServer(m, wire.ServerOptions{Obs: h.Reg, InvokeTimeout: 10 * time.Second})
	done := make(chan error, 1)
	go func() { done <- srv.Serve("127.0.0.1:0") }()
	select {
	case <-srv.Ready():
	case err := <-done:
		m.Close()
		pers.Close()
		return fmt.Errorf("chaos: server never bound: %v", err)
	}

	h.mu.Lock()
	h.pers, h.db, h.m, h.srv, h.serveDone = pers, db, m, srv, done
	h.mu.Unlock()
	return nil
}

// stop tears the current generation down without draining — the crash
// path. Whatever the WAL fsynced survives; everything else is gone.
func (h *Harness) stop() {
	h.mu.Lock()
	pers, m, srv, done := h.pers, h.m, h.srv, h.serveDone
	h.mu.Unlock()
	if srv != nil {
		srv.Close()
		<-done
	}
	if m != nil {
		m.Close()
	}
	if pers != nil {
		pers.Close()
	}
}

// Crash kills the backend and severs every proxied connection, leaving the
// proxy up (clients reconnect into a dead target until Restart).
func (h *Harness) Crash() {
	h.Proxy.KillAll()
	h.stop()
}

// Restart recovers a fresh generation from the WAL and repoints the proxy.
func (h *Harness) Restart() error {
	if err := h.start(); err != nil {
		return err
	}
	h.Proxy.SetTarget(h.srv.Addr().String())
	return nil
}

// Seat reads the committed value of seat counter i straight from the data
// layer, bypassing the GTM.
func (h *Harness) Seat(i int) (int64, error) {
	h.mu.Lock()
	db := h.db
	h.mu.Unlock()
	v, err := db.ReadCommitted("Seats", fmt.Sprintf("S%d", i), "Free")
	if err != nil {
		return 0, err
	}
	return v.Int64(), nil
}

// Total sums every seat counter.
func (h *Harness) Total() (int64, error) {
	var total int64
	for i := 0; i < h.objects; i++ {
		v, err := h.Seat(i)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// Checkpoint makes the current generation's committed state durable and
// truncates the WAL — for the disk driver, this is what moves data out
// of the redo log and into the page file, so kill-and-recover exercises
// superblock recovery rather than pure WAL replay.
func (h *Harness) Checkpoint() error {
	h.mu.Lock()
	pers, db := h.pers, h.db
	h.mu.Unlock()
	return pers.Checkpoint(db)
}

// StoreStats snapshots the current generation's storage driver.
func (h *Harness) StoreStats() store.Stats {
	h.mu.Lock()
	db := h.db
	h.mu.Unlock()
	return db.StoreStats()
}

// Replays reads the accumulated exactly-once replay counter.
func (h *Harness) Replays() uint64 {
	return h.Reg.Snapshot()["wire_replayed_responses_total"]
}

// Close shuts everything down.
func (h *Harness) Close() {
	h.stop()
	if h.Proxy != nil {
		h.Proxy.Close()
	}
}
