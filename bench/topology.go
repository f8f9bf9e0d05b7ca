package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/ldbs"
	_ "preserial/internal/ldbs/store/disk" // register the disk storage driver
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// This file pins the configuration of the program under test. It mirrors the
// flag defaults of cmd/gtmd at the commit that defined the benchmark, so the
// numbers describe the stack as it is deployed; a change to any of these
// values is a change to the benchmark, not to the program.
//
// Flush policy, identical on both sides of any comparison: real fsync on
// files under the run's data directory, SyncDelay 0, WAL group commit on
// (the library default), no group-commit window. Latencies are the
// sandbox's, not a device's.

const (
	// sstWorkers and sstQueueDepth are gtmd's -sst-workers / -sst-queue-depth.
	sstWorkers    = 4
	sstQueueDepth = 64
	// traceDepth is gtmd's -trace-depth (the GTM event ring).
	traceDepth = 4096
	// invokeTimeout bounds a blocking invoke at both front ends. gtmd's
	// default is unbounded; the benchmark bounds it so that a scheduling bug
	// fails a run instead of hanging it. No workload ever blocks an invoke.
	invokeTimeout = 10 * time.Second
	// checkpointEvery is how often the durable single-node workloads
	// checkpoint; cluster_booking never does (see its workload file).
	checkpointEvery = 5 * time.Second
	// supervisorEvery is gtmd's supervisor tick.
	supervisorEvery = 5 * time.Second
	// seatsPerRow seeds every row far above what a run can subtract, so the
	// CHECK constraint never fires.
	seatsPerRow = int64(1_000_000_000)
)

// supervisorPolicy is gtmd's -idle-timeout / -wait-timeout / -sleep-abort-after.
var supervisorPolicy = core.SupervisorConfig{
	IdleTimeout:     2 * time.Minute,
	WaitTimeout:     5 * time.Minute,
	SleepAbortAfter: time.Hour,
}

// managerOpts are the options every Manager of the benchmark runs with:
// history on, SST executor 4×64, epoch commit off. Sharded topologies get the
// observability handle through their shard config instead.
func managerOpts(observ *core.Observability) []core.Option {
	opts := []core.Option{core.WithHistory(), core.WithSSTExecutor(sstWorkers, sstQueueDepth)}
	if observ != nil {
		opts = append(opts, core.WithObservability(observ))
	}
	return opts
}

// gatewayOpts is a zero-value gateway.Options (default lanes, depth and
// workers, no admission limits) except that parked sessions are never reaped
// and invokes are bounded.
func gatewayOpts(reg *obs.Registry) gateway.Options {
	return gateway.Options{Obs: reg, SessionRetention: -1, InvokeTimeout: invokeTimeout}
}

// wireOpts configures the legacy one-goroutine-per-connection server.
func wireOpts(reg *obs.Registry) wire.ServerOptions {
	return wire.ServerOptions{Obs: reg, InvokeTimeout: invokeTimeout}
}

// The one table every workload uses: Seats(Free int64 CHECK Free ≥ 0).
const (
	seatsTable  = "Seats"
	seatsColumn = "Free"
)

func seatsSchemas() []ldbs.Schema {
	return []ldbs.Schema{{
		Table:   seatsTable,
		Columns: []ldbs.ColumnDef{{Name: seatsColumn, Kind: sem.KindInt64}},
		Checks:  []ldbs.Check{{Column: seatsColumn, Op: ldbs.CmpGE, Bound: sem.Int(0)}},
	}}
}

// seatKey is object i's row key; seatObject its GTM object id, in the
// "Table/Key" form the shard ring routes by.
func seatKey(i int) string    { return fmt.Sprintf("k%05d", i) }
func seatObject(i int) string { return seatsTable + "/" + seatKey(i) }

func seatRef(i int) core.StoreRef {
	return core.StoreRef{Table: seatsTable, Key: seatKey(i), Column: seatsColumn}
}

// seedBatch bounds one seeding transaction, so a large table is not one
// giant WAL record.
const seedBatch = 4096

// seedSeats inserts rows for the given object indexes at seatsPerRow.
func seedSeats(db *ldbs.DB, objects []int) error {
	ctx := context.Background()
	for len(objects) > 0 {
		n := len(objects)
		if n > seedBatch {
			n = seedBatch
		}
		tx := db.Begin()
		for _, i := range objects[:n] {
			if err := tx.Insert(ctx, seatsTable, seatKey(i), ldbs.Row{seatsColumn: sem.Int(seatsPerRow)}); err != nil {
				tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(ctx); err != nil {
			return err
		}
		objects = objects[n:]
	}
	return nil
}

// registerSeats declares the objects to a manager.
func registerSeats(m *core.Manager, objects []int) error {
	for _, i := range objects {
		if err := m.RegisterAtomicObject(core.ObjectID(seatObject(i)), seatRef(i)); err != nil {
			return err
		}
	}
	return nil
}

// readSeat reads object i's committed value through the data layer.
func readSeat(db *ldbs.DB, i int) (int64, error) {
	v, err := db.ReadCommitted(seatsTable, seatKey(i), seatsColumn)
	if err != nil {
		return 0, err
	}
	return v.Int64(), nil
}

// iota0 returns 0..n-1.
func iota0(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// background runs periodic jobs (checkpoints, the supervisor) that a gtmd
// process would run, and stops them all: stop returns once every goroutine
// has exited.
type background struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	cancel context.CancelFunc
}

func newBackground() *background {
	return &background{stopCh: make(chan struct{})}
}

// every runs fn each interval until stop.
func (b *background) every(interval time.Duration, fn func()) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-b.stopCh:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// supervise runs gtmd's supervisor over m.
func (b *background) supervise(m *core.Manager) {
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		core.RunSupervisor(ctx, m, supervisorPolicy, supervisorEvery)
	}()
}

func (b *background) stop() {
	close(b.stopCh)
	if b.cancel != nil {
		b.cancel()
	}
	b.wg.Wait()
}

// server is what the benchmark needs from either front end.
type server interface {
	Serve(addr string) error
	Ready() <-chan struct{}
	Close() error
}

// serve starts a front end on an ephemeral loopback port and returns its
// address once it is bound. done receives Serve's result after Close.
func serve(s server, addrOf func() string) (addr string, done <-chan error, err error) {
	ch := make(chan error, 1)
	go func() { ch <- s.Serve("127.0.0.1:0") }()
	select {
	case <-s.Ready():
		return addrOf(), ch, nil
	case err := <-ch:
		return "", nil, fmt.Errorf("bench: front end did not start: %w", err)
	case <-time.After(10 * time.Second):
		return "", nil, fmt.Errorf("bench: front end did not bind within 10s")
	}
}

// redoCounter estimates how many GTM commits a reopen has to redo from the
// WAL: those since the last completed checkpoint.
type redoCounter struct {
	reg    *obs.Registry
	atCkpt atomic.Int64
}

func (c *redoCounter) commits() int64 { return int64(c.reg.Counter(obs.NameCommits, "").Load()) }

// checkpointed notes that a checkpoint just completed.
func (c *redoCounter) checkpointed() { c.atCkpt.Store(c.commits()) }

// pending is the number of commits since the last checkpoint.
func (c *redoCounter) pending() int64 { return c.commits() - c.atCkpt.Load() }
