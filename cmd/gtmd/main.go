// Command gtmd runs the transaction-management middleware of Section III:
// an embedded LDBS (with WAL durability), the Global Transaction Manager on
// top, and the TCP protocol front end. It seeds the travel-agency demo
// database of Section II — flights, hotels, museums and cars, each with a
// non-negativity constraint on its availability counter — and registers one
// GTM object per bookable resource.
//
// Usage:
//
//	gtmd -addr :7654 -data /var/lib/gtmd
//
// With -data, the LDBS recovers from CHECKPOINT + WAL in that directory,
// logs every commit, and checkpoints periodically. Connect with gtmcli or
// the wire client library. Dropping a connection mid-transaction puts the
// transaction to sleep; reconnect, attach and awake to finish it.
//
// With -data and -store=disk, rows live in an on-disk B-tree page file
// (STORE) behind a byte-budgeted page cache (-page-cache-bytes), so the
// working set may exceed RAM; checkpoints flush dirty pages and advance
// the file's superblock instead of rewriting a snapshot. All modes honor
// it (shards get one page file per shard directory). See docs/STORAGE.md.
//
// Sharded deployments split the object space over -shards ring positions by
// rendezvous hashing; a single node is the one-shard case (clients are
// unchanged in every mode):
//
//	gtmd -shards 4 -data /var/lib/gtmd
//	    One process hosting all four GTM+LDBS partitions (dirs shard-0..3),
//	    cross-shard commits via two-phase SSTs with a coordinator WAL.
//
//	gtmd -shards 4 -shard-index 1 -addr :7655 -data /var/lib/shard-1
//	    One participant of a multi-process cluster: seeds and serves only
//	    the demo objects the ring routes to shard 1.
//
//	gtmd -route host0:7655,host1:7656 -addr :7654 -data /var/lib/router
//	    A router/coordinator over already-running participants.
//
// Replication (a process hosting one shard; see docs/REPLICATION.md):
//
//	gtmd -addr :7655 -data /var/lib/shard-1 -repl-listen :9655
//	    Ship the WAL to followers; commits are semi-synchronous once a
//	    follower attaches (-repl-async opts out).
//
//	gtmd -replica-of host1:9655 -data /var/lib/standby-1
//	    A warm standby: ingests the stream into its own directory,
//	    redialling across primary restarts. -promote-on-exit turns the
//	    shutdown signal into a promotion at the next fencing epoch.
//
// In every mode the TCP front end is the session-multiplexing gateway:
// clients without sessions are served in order, one owner per connection,
// while gateway clients get many logical sessions per connection,
// token-bucket admission control (-gw-rate, -gw-tenant-rate), bounded
// dispatch lanes with retry-after backpressure, and a parked-session table
// so an idle disconnected client costs bytes (-gw-max-sessions,
// -gw-session-retention). See docs/GATEWAY.md.
//
// With -http, a diagnostics listener serves /metrics (Prometheus text),
// /healthz, /debug/trace (the GTM event ring as JSON) and /debug/pprof.
// See docs/OBSERVABILITY.md and docs/SHARDING.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/ldbs"
	_ "preserial/internal/ldbs/store/disk" // register the disk storage driver for -store
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/shard"
	"preserial/internal/wire"
)

const (
	// sstWorkers × sstQueueDepth size every shard's SST executor: a free
	// worker applies everything queued as one store transaction, and an
	// overflowing queue runs the SST on the committing goroutine.
	sstWorkers    = 4
	sstQueueDepth = 64
	// traceDepth is the capacity of the GTM event ring behind /debug/trace.
	traceDepth = 4096
	// defaultMaxSessions caps the gateway's session table. A parked session
	// that owns no live transaction holds about 165 bytes of heap (the
	// gateway's TestParkedSessionHeap measures it, with a 192-byte budget),
	// so 2^20 of them stay under 192 MiB; docs/GATEWAY.md plans with it.
	defaultMaxSessions = 1 << 20
)

// config carries the parsed flags shared by every mode.
type config struct {
	addr      string
	dataDir   string
	store     string
	pageCache int64
	ckptEvery time.Duration
	seats     int64
	idle      time.Duration
	waitTO    time.Duration
	sleepTO   time.Duration
	httpAddr  string
	drainTO   time.Duration

	shards     int
	shardIndex int
	route      string

	replListen    string
	replicaOf     string
	replAsync     bool
	promoteOnExit bool

	gw gateway.Options // the -gw-* flags, plus the logger, registry and -invoke-timeout

	logger *log.Logger
	reg    *obs.Registry
	observ *core.Observability
	start  time.Time
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "listen address")
	dataDir := flag.String("data", "", "data directory for CHECKPOINT + WAL (empty: no durability)")
	storeName := flag.String("store", "mem", "storage driver with -data: mem (tables in RAM, snapshot checkpoints) or disk (B-tree page file, RAM bounded by -page-cache-bytes)")
	pageCache := flag.Int64("page-cache-bytes", 0, "page-cache byte budget per shard for -store=disk (0: driver default)")
	ckptEvery := flag.Duration("checkpoint-every", 5*time.Minute, "checkpoint interval when -data is set")
	seats := flag.Int64("seats", 100, "initial availability of every demo resource")
	idle := flag.Duration("idle-timeout", 2*time.Minute, "put idle Active transactions to sleep after this (0: never)")
	waitTO := flag.Duration("wait-timeout", 5*time.Minute, "abort transactions queued longer than this (0: never)")
	sleepTO := flag.Duration("sleep-abort-after", time.Hour, "abort sleepers away longer than this (0: never)")
	invokeTO := flag.Duration("invoke-timeout", 0, "fail blocking invokes after this (0: wait forever)")
	httpAddr := flag.String("http", "", "diagnostics listen address for /metrics, /healthz, /debug/trace and /debug/pprof (empty: disabled)")
	drainTO := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget on SIGTERM/SIGINT: wait this long for in-flight commits before exiting")
	shards := flag.Int("shards", 1, "split the object space over N ring positions, with cross-shard two-phase commit; this process hosts all of them unless -shard-index picks one (1: classic single node)")
	shardIndex := flag.Int("shard-index", -1, "host only this ring position of -shards, as one participant of a multi-process cluster (-1: host every shard)")
	route := flag.String("route", "", "comma-separated participant addresses; serve as a stateless router/coordinator over them")
	var gw gateway.Options
	flag.IntVar(&gw.MaxSessions, "gw-max-sessions", defaultMaxSessions, "session-table cap, bound + parked; the default holds under 192 MiB of idle parked sessions (0: unlimited)")
	flag.Float64Var(&gw.Rate, "gw-rate", 0, "global admission rate, transaction begins per second (0: unlimited)")
	flag.Float64Var(&gw.Burst, "gw-burst", 0, "global admission burst (0: same as -gw-rate)")
	flag.Float64Var(&gw.TenantRate, "gw-tenant-rate", 0, "per-tenant admission rate, begins per second (0: no per-tenant limiting)")
	flag.Float64Var(&gw.TenantBurst, "gw-tenant-burst", 0, "per-tenant admission burst (0: same as -gw-tenant-rate)")
	flag.DurationVar(&gw.SessionRetention, "gw-session-retention", gateway.DefaultSessionRetention, "reap parked sessions idle longer than this (negative: never)")
	replListen := flag.String("repl-listen", "", "serve the WAL replication stream to followers on this address (a process hosting one shard; requires -data)")
	replicaOf := flag.String("replica-of", "", "run as a warm follower of the primary at this address (its -repl-listen); -data names the follower's own directory")
	replAsync := flag.Bool("repl-async", false, "with -repl-listen: acknowledge commits without waiting for a follower ack (default: semi-synchronous once a follower attaches)")
	promoteOnExit := flag.Bool("promote-on-exit", false, "with -replica-of: on the shutdown signal, promote the follower directory to a primary at the next fencing epoch before exiting (fence the old primary first)")
	flag.Parse()

	logger := log.New(os.Stderr, "gtmd: ", log.LstdFlags)
	reg := obs.NewRegistry()
	gw.Logger, gw.Obs, gw.InvokeTimeout = logger, reg, *invokeTO
	cfg := &config{
		addr: *addr, dataDir: *dataDir, store: *storeName, pageCache: *pageCache,
		ckptEvery: *ckptEvery, seats: *seats,
		idle: *idle, waitTO: *waitTO, sleepTO: *sleepTO,
		httpAddr: *httpAddr, drainTO: *drainTO,
		shards: *shards, shardIndex: *shardIndex, route: *route,
		replListen: *replListen, replicaOf: *replicaOf, replAsync: *replAsync,
		promoteOnExit: *promoteOnExit, gw: gw,
		logger: logger, reg: reg,
		observ: core.NewObservability(reg, traceDepth),
		start:  time.Now(),
	}
	if err := cfg.validate(); err != nil {
		logger.Fatal(err)
	}

	switch {
	case cfg.replicaOf != "":
		runFollower(cfg)
	case cfg.route != "":
		runRouter(cfg)
	default:
		runLocal(cfg)
	}
}

// validate rejects flag combinations that would otherwise be silently
// ignored or contradict each other.
func (cfg *config) validate() error {
	local := cfg.shards > 1 || cfg.shardIndex >= 0
	switch {
	case local && cfg.route != "", local && cfg.replicaOf != "", cfg.route != "" && cfg.replicaOf != "":
		return errors.New("-shards/-shard-index, -route and -replica-of are mutually exclusive")
	case cfg.shards < 1:
		return fmt.Errorf("-shards %d: need at least one shard", cfg.shards)
	case cfg.shardIndex < -1 || cfg.shardIndex >= cfg.shards:
		return fmt.Errorf("-shard-index %d outside [-1, %d) for -shards %d", cfg.shardIndex, cfg.shards, cfg.shards)
	case cfg.replListen != "" && (cfg.route != "" || cfg.replicaOf != "" || cfg.shards > 1 && cfg.shardIndex < 0):
		return errors.New("-repl-listen ships the WAL of a process hosting one shard: not with -route, -replica-of or several hosted shards")
	case cfg.replListen != "" && cfg.dataDir == "":
		return errors.New("-repl-listen requires -data: the fencing epoch lives in the data directory")
	case cfg.replAsync && cfg.replListen == "":
		return errors.New("-repl-async requires -repl-listen")
	case cfg.replicaOf != "" && cfg.dataDir == "":
		return errors.New("-replica-of requires -data for the follower's own directory")
	case cfg.promoteOnExit && cfg.replicaOf == "":
		return errors.New("-promote-on-exit requires -replica-of")
	}
	return nil
}

// --- local shards: single node, participant, in-process cluster ---

// runLocal hosts every shard of -shards, or only -shard-index. One hosted
// shard (single node, participant) is served directly from the -data root
// and may ship its WAL; several are served through an in-process
// coordinator, with shard-i/ subdirectories plus coord.wal under -data.
func runLocal(cfg *config) {
	logger := cfg.logger
	first, n := 0, cfg.shards
	if cfg.shardIndex >= 0 {
		first, n = cfg.shardIndex, 1
	}
	locals := make([]*shard.LocalShard, n)
	members := make([]shard.Shard, n)
	for j := range locals {
		i, dir := first+j, cfg.dataDir
		if dir != "" && n > 1 {
			dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		}
		s, err := openDemoShard(cfg, i, dir)
		if err != nil {
			logger.Fatal(err)
		}
		locals[j], members[j] = s, s
		logger.Printf("shard %d/%d up (dir %q, committed so far: %d)", i, cfg.shards, dir, s.DB().Stats().Committed)
		sup := core.SupervisorConfig{IdleTimeout: cfg.idle, WaitTimeout: cfg.waitTO, SleepAbortAfter: cfg.sleepTO}
		go core.RunSupervisor(context.Background(), s.Manager(), sup, 5*time.Second)
	}
	checkpoint := func() { // a no-op for shards without -data
		for _, s := range locals {
			if err := s.Checkpoint(); err != nil {
				logger.Printf("checkpoint shard %d: %v", s.Index(), err)
			}
		}
	}
	go func() {
		for range time.Tick(cfg.ckptEvery) {
			checkpoint()
		}
	}()

	var backend wire.Backend
	var cl *shard.Cluster
	mode, stopRepl := "single node", func() {}
	if n == 1 {
		backend = wire.NewManagerBackend(locals[0].Manager())
		stopRepl = startReplSource(cfg, locals[0].DB())
		if cfg.shardIndex >= 0 {
			mode = fmt.Sprintf("participant %d/%d", first, cfg.shards)
		}
	} else {
		var err error
		if cl, err = openCluster(cfg, members); err != nil {
			logger.Fatalf("in-doubt resolution: %v", err)
		}
		backend, mode = cl, fmt.Sprintf("%d in-process shards", n)
	}

	startHTTP(cfg, liveCountBackend(backend))
	serveWithDrain(cfg, backend, fmt.Sprintf("%s (data dir %q)", mode, cfg.dataDir), func() {
		stopRepl()
		if cl != nil {
			cl.Close()
		}
		checkpoint()
		for _, s := range locals {
			s.Close()
		}
	})
}

// openDemoShard opens ring position i of -shards as a LocalShard in dir,
// seeding and registering the demo objects the ring routes there.
func openDemoShard(cfg *config, i int, dir string) (*shard.LocalShard, error) {
	owned := ownedRefs(shard.NewRing(cfg.shards), i)
	return shard.OpenLocal(shard.LocalConfig{
		Index:          i,
		Dir:            dir,
		Store:          cfg.store,
		PageCacheBytes: cfg.pageCache,
		Schemas:        demoSchemas(),
		Seed:           func(db *ldbs.DB) error { return seedDemo(db, owned, cfg.seats) },
		Objects:        objectMap(owned),
		Obs:            cfg.reg,
		Observability:  cfg.observ,
		ManagerOpts:    []core.Option{core.WithSSTExecutor(sstWorkers, sstQueueDepth)},
	})
}

// openCluster puts a two-phase-commit coordinator over members, logging
// its decisions to coord.wal under -data, and resolves the in-doubt
// commits that log holds. Whether a resolution error is fatal is the
// caller's call: in process every participant is already up.
func openCluster(cfg *config, members []shard.Shard) (*shard.Cluster, error) {
	logger := cfg.logger
	logPath := ""
	if cfg.dataDir != "" {
		if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			logger.Fatalf("data dir: %v", err)
		}
		logPath = filepath.Join(cfg.dataDir, "coord.wal")
	}
	cl, err := shard.NewCluster(shard.Config{
		Shards:       members,
		CoordLogPath: logPath,
		Obs:          cfg.reg,
		Logger:       logger,
	})
	if err != nil {
		logger.Fatalf("cluster: %v", err)
	}
	resolved, err := cl.ResolveInDoubt()
	if resolved > 0 {
		logger.Printf("resolved %d in-doubt cross-shard commits", resolved)
	}
	return cl, err
}

// --- replication: WAL shipping to followers, and the follower itself ---

// startReplSource serves the database's WAL stream on -repl-listen,
// returning a stop function (a no-op when the flag is unset). Commits are
// semi-synchronous once a follower attaches unless -repl-async.
func startReplSource(cfg *config, db *ldbs.DB) func() {
	if cfg.replListen == "" {
		return func() {}
	}
	logger := cfg.logger
	epoch, err := ldbs.ReadReplEpoch(cfg.dataDir)
	if err != nil {
		logger.Fatalf("replication epoch: %v", err)
	}
	if epoch == 0 {
		epoch = 1
		if err := ldbs.WriteReplEpoch(cfg.dataDir, epoch); err != nil {
			logger.Fatalf("replication epoch: %v", err)
		}
	}
	src, err := ldbs.NewReplSource(db, ldbs.ReplSourceOptions{
		Epoch:    epoch,
		SemiSync: !cfg.replAsync,
		Obs:      cfg.reg,
	})
	if err != nil {
		logger.Fatalf("replication source: %v", err)
	}
	ln, err := net.Listen("tcp", cfg.replListen)
	if err != nil {
		logger.Fatalf("repl listen: %v", err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			logger.Printf("repl: follower connected from %s", c.RemoteAddr())
			go func() {
				if err := src.Serve(c); err != nil {
					logger.Printf("repl: stream to %s ended: %v", c.RemoteAddr(), err)
				}
			}()
		}
	}()
	logger.Printf("repl: shipping WAL on %s (epoch %d, semi-sync %v)", ln.Addr(), epoch, !cfg.replAsync)
	return func() {
		ln.Close()
		src.Close()
	}
}

// runFollower runs a warm standby: it ingests the primary's WAL stream
// into its own durable directory and keeps redialling across primary
// restarts. With -promote-on-exit, the shutdown signal promotes the
// directory to a primary at the next fencing epoch — after which starting
// a normal gtmd over it (with -repl-listen for its own followers) completes
// the failover. The old primary must be fenced off first: two primaries
// accepting writes under the same object space is a split brain.
func runFollower(cfg *config) {
	logger := cfg.logger
	rep, err := ldbs.OpenReplica(ldbs.ReplicaOptions{
		Dir:            cfg.dataDir,
		Schemas:        shard.HiddenSchemas(demoSchemas()),
		Store:          cfg.store,
		PageCacheBytes: cfg.pageCache,
		Obs:            cfg.reg,
		Logf:           logger.Printf,
	})
	if err != nil {
		logger.Fatalf("open follower: %v", err)
	}
	startHTTP(cfg, func() float64 { return 0 })

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep.Run(func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", cfg.replicaOf, 5*time.Second)
		}, stop)
	}()
	logger.Printf("follower of %s (data dir %q, epoch %d, cursor %d)",
		cfg.replicaOf, cfg.dataDir, rep.Epoch(), rep.Cursor())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	sig := <-sigs
	logger.Printf("received %s, stopping replication at cursor %d", sig, rep.Cursor())
	close(stop)
	<-done
	if cfg.promoteOnExit {
		next := rep.Epoch() + 1
		lsn, err := rep.Promote(next)
		if err != nil {
			logger.Fatalf("promote: %v", err)
		}
		logger.Printf("promoted %q at LSN %d (epoch %d) — restart gtmd over this directory to serve", cfg.dataDir, lsn, next)
	}
	if err := rep.Close(); err != nil {
		logger.Printf("close: %v", err)
	}
	os.Exit(0)
}

// --- router over remote participants ---

func runRouter(cfg *config) {
	addrs := strings.Split(cfg.route, ",")
	members := make([]shard.Shard, len(addrs))
	for i, a := range addrs {
		members[i] = shard.NewRemoteShard(i, strings.TrimSpace(a))
	}
	cl, err := openCluster(cfg, members)
	if err != nil {
		// Participants may still be coming up; decisions stay pending and
		// a later resolution (or restart) completes them.
		cfg.logger.Printf("in-doubt resolution incomplete (%v) — %d pending", err, len(cl.InDoubt()))
	}

	startHTTP(cfg, liveCountBackend(cl))
	serveWithDrain(cfg, cl, fmt.Sprintf("router over %d participants %v", len(addrs), addrs), func() {
		cl.Close()
	})
}

// --- shared plumbing ---

// liveCountBackend counts a backend's non-terminal transactions.
func liveCountBackend(b wire.Backend) func() float64 {
	committed, aborted := core.StateCommitted.String(), core.StateAborted.String()
	return func() float64 {
		var n int
		for _, ti := range b.Transactions() {
			if ti.State != committed && ti.State != aborted {
				n++
			}
		}
		return float64(n)
	}
}

// startHTTP serves the diagnostics mux when -http is set.
func startHTTP(cfg *config, live func() float64) {
	if cfg.httpAddr == "" {
		return
	}
	handler := newHTTPHandler(cfg.reg, cfg.observ, live, cfg.start)
	go func() {
		cfg.logger.Printf("diagnostics on http://%s/metrics", cfg.httpAddr)
		if err := http.ListenAndServe(cfg.httpAddr, handler); err != nil {
			cfg.logger.Fatalf("http: %v", err)
		}
	}()
}

// serveWithDrain serves the gateway over b until SIGTERM/SIGINT, then
// drains gracefully and runs the mode's shutdown hook.
func serveWithDrain(cfg *config, b wire.Backend, mode string, shutdown func()) {
	logger := cfg.logger
	srv := gateway.NewServer(b, cfg.gw)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigs
		logger.Printf("received %s, draining (budget %s)", sig, cfg.drainTO)
		rep := srv.Drain(cfg.drainTO)
		logger.Printf("drain: %d transactions slept, commits flushed: %v", rep.Slept, rep.CommitsFlushed)
		shutdown()
		if !rep.CommitsFlushed {
			os.Exit(1)
		}
		os.Exit(0)
	}()

	logger.Printf("middleware listening on %s — gateway over %s", cfg.addr, mode)
	if err := srv.Serve(cfg.addr); err != nil {
		logger.Fatalf("serve: %v", err)
	}
	// Serve returned nil: a drain is in progress; let it finish the exit.
	select {}
}

// --- the travel-agency demo data set ---

// demo resources: 4 of each kind, as in the motivating scenario.
var demoTables = []struct {
	table  string
	column string
	prefix string
}{
	{"Flight", "FreeTickets", "AZ"},
	{"Hotel", "FreeRooms", "H"},
	{"Museum", "FreeTickets", "M"},
	{"Car", "FreeCars", "C"},
}

const demoPerKind = 4

// demoRef is one bookable resource: a GTM object and its backing row.
type demoRef struct {
	object string
	ref    core.StoreRef
}

// demoRefs lists every demo resource. Object ids are "Table/Key" — the
// same convention the shard ring routes by, so an object and its row
// always land on the same shard.
func demoRefs() []demoRef {
	var out []demoRef
	for _, t := range demoTables {
		for i := 0; i < demoPerKind; i++ {
			key := fmt.Sprintf("%s%d", t.prefix, i)
			out = append(out, demoRef{
				object: fmt.Sprintf("%s/%s", t.table, key),
				ref:    core.StoreRef{Table: t.table, Key: key, Column: t.column},
			})
		}
	}
	return out
}

// ownedRefs filters the demo set to the resources ring routes to shard idx.
func ownedRefs(ring *shard.Ring, idx int) []demoRef {
	var out []demoRef
	for _, d := range demoRefs() {
		if ring.Route(d.object) == idx {
			out = append(out, d)
		}
	}
	return out
}

// objectMap converts refs to the LocalConfig.Objects form.
func objectMap(refs []demoRef) map[string]core.StoreRef {
	out := make(map[string]core.StoreRef, len(refs))
	for _, d := range refs {
		out[d.object] = d.ref
	}
	return out
}

func demoSchemas() []ldbs.Schema {
	out := make([]ldbs.Schema, 0, len(demoTables))
	for _, t := range demoTables {
		out = append(out, ldbs.Schema{
			Table:   t.table,
			Columns: []ldbs.ColumnDef{{Name: t.column, Kind: sem.KindInt64}},
			Checks:  []ldbs.Check{{Column: t.column, Op: ldbs.CmpGE, Bound: sem.Int(0)}},
		})
	}
	return out
}

// seedDemo idempotently inserts the given resources at `seats` each.
func seedDemo(db *ldbs.DB, refs []demoRef, seats int64) error {
	ctx := context.Background()
	tx := db.Begin()
	for _, d := range refs {
		if _, err := db.ReadCommitted(d.ref.Table, d.ref.Key, d.ref.Column); err == nil {
			continue // survived recovery
		}
		if err := tx.Insert(ctx, d.ref.Table, d.ref.Key, ldbs.Row{d.ref.Column: sem.Int(seats)}); err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit(ctx)
}
