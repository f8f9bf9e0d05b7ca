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
// Sharded deployments (clients are unchanged in every mode):
//
//	gtmd -shards 4 -data /var/lib/gtmd
//	    One process, four GTM+LDBS partitions (dirs shard-0..shard-3), the
//	    object space split by rendezvous hashing, cross-shard commits via
//	    two-phase SSTs with a coordinator WAL (coord.wal).
//
//	gtmd -shard-index 1 -shard-count 4 -addr :7655 -data /var/lib/shard-1
//	    One participant of a multi-process cluster: seeds and serves only
//	    the demo objects the ring routes to shard 1.
//
//	gtmd -route host0:7655,host1:7656 -addr :7654 -data /var/lib/router
//	    A router/coordinator over already-running participants.
//
// Replication (single-node and participant modes; see docs/REPLICATION.md):
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
// With -gateway (composes with every mode), the TCP front end is the
// session-multiplexing gateway tier: many logical sessions per connection,
// token-bucket admission control (-gw-rate, -gw-tenant-rate), bounded
// dispatch lanes with retry-after backpressure (-gw-lanes, -gw-lane-depth)
// and a parked-session table so an idle disconnected client costs bytes
// (-gw-max-sessions, -gw-session-retention). See docs/GATEWAY.md.
//
// With -http, a diagnostics listener serves /metrics (Prometheus text),
// /healthz, /debug/trace (the GTM event ring as JSON) and /debug/pprof.
// See docs/OBSERVABILITY.md and docs/SHARDING.md.
package main

import (
	"context"
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
	invokeTO  time.Duration
	httpAddr  string
	drainTO   time.Duration

	shards     int
	route      string
	shardIndex int
	shardCount int

	replListen    string
	replicaOf     string
	replAsync     bool
	promoteOnExit bool

	gateway       bool
	gwLanes       int
	gwLaneDepth   int
	gwWorkers     int
	gwSessions    int
	gwRate        float64
	gwBurst       float64
	gwTenantRate  float64
	gwTenantBurst float64
	gwRetention   time.Duration

	managerOpts func() []core.Option

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
	traceDepth := flag.Int("trace-depth", 4096, "GTM event trace ring capacity")
	sstWorkers := flag.Int("sst-workers", 4, "SST executor worker goroutines per shard; a free worker applies everything queued as one store transaction (0: apply each SST on the committing goroutine)")
	sstQueue := flag.Int("sst-queue-depth", 64, "SST executor queue depth; overflow runs inline")
	syncDelay := flag.Duration("wal-sync-delay", 0, "emulated stable-storage latency added to every WAL sync (models mobile-class flash; 0: none)")
	drainTO := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget on SIGTERM/SIGINT: wait this long for in-flight commits before exiting")
	shards := flag.Int("shards", 1, "run N in-process shards with cross-shard two-phase commit (1: classic single node)")
	route := flag.String("route", "", "comma-separated participant addresses; serve as a stateless router/coordinator over them")
	shardIndex := flag.Int("shard-index", 0, "this participant's ring position (with -shard-count)")
	shardCount := flag.Int("shard-count", 0, "total shard count of the cluster this participant belongs to (0: not a participant)")
	gw := flag.Bool("gateway", false, "serve the session-multiplexing gateway front end (many logical sessions per connection, admission control, parked-session table) instead of one goroutine per connection; composes with every mode")
	gwLanes := flag.Int("gw-lanes", gateway.DefaultLanes, "gateway dispatch lanes (requests route by owning shard, or by tx hash)")
	gwLaneDepth := flag.Int("gw-lane-depth", gateway.DefaultLaneDepth, "per-lane queue bound; a full lane sheds with retry-after")
	gwWorkers := flag.Int("gw-lane-workers", gateway.DefaultLaneWorkers, "concurrent requests per lane")
	gwSessions := flag.Int("gw-max-sessions", 0, "session-table cap, bound + parked (0: unlimited)")
	gwRate := flag.Float64("gw-rate", 0, "global admission rate, transaction begins per second (0: unlimited)")
	gwBurst := flag.Float64("gw-burst", 0, "global admission burst (0: same as -gw-rate)")
	gwTenantRate := flag.Float64("gw-tenant-rate", 0, "per-tenant admission rate, begins per second (0: no per-tenant limiting)")
	gwTenantBurst := flag.Float64("gw-tenant-burst", 0, "per-tenant admission burst (0: same as -gw-tenant-rate)")
	gwRetention := flag.Duration("gw-session-retention", gateway.DefaultSessionRetention, "reap parked sessions idle longer than this (negative: never)")
	replListen := flag.String("repl-listen", "", "serve the WAL replication stream to followers on this address (single-node and participant modes; requires -data)")
	replicaOf := flag.String("replica-of", "", "run as a warm follower of the primary at this address (its -repl-listen); -data names the follower's own directory")
	replAsync := flag.Bool("repl-async", false, "acknowledge commits without waiting for a follower ack (default: semi-synchronous once a follower attaches)")
	promoteOnExit := flag.Bool("promote-on-exit", false, "with -replica-of: on the shutdown signal, promote the follower directory to a primary at the next fencing epoch before exiting (fence the old primary first)")
	flag.Parse()

	logger := log.New(os.Stderr, "gtmd: ", log.LstdFlags)
	reg := obs.NewRegistry()
	cfg := &config{
		addr: *addr, dataDir: *dataDir, store: *storeName, pageCache: *pageCache,
		ckptEvery: *ckptEvery, seats: *seats,
		idle: *idle, waitTO: *waitTO, sleepTO: *sleepTO, invokeTO: *invokeTO,
		httpAddr: *httpAddr, drainTO: *drainTO,
		shards: *shards, route: *route, shardIndex: *shardIndex, shardCount: *shardCount,
		replListen: *replListen, replicaOf: *replicaOf, replAsync: *replAsync,
		promoteOnExit: *promoteOnExit,
		gateway:       *gw, gwLanes: *gwLanes, gwLaneDepth: *gwLaneDepth, gwWorkers: *gwWorkers,
		gwSessions: *gwSessions, gwRate: *gwRate, gwBurst: *gwBurst,
		gwTenantRate: *gwTenantRate, gwTenantBurst: *gwTenantBurst, gwRetention: *gwRetention,
		logger: logger, reg: reg,
		observ: core.NewObservability(reg, *traceDepth),
		start:  time.Now(),
	}
	cfg.managerOpts = func() []core.Option {
		opts := []core.Option{core.WithHistory(), core.WithObservability(cfg.observ)}
		if *sstWorkers > 0 {
			opts = append(opts, core.WithSSTExecutor(*sstWorkers, *sstQueue))
		}
		return opts
	}
	modes := 0
	for _, on := range []bool{*shards > 1, *route != "", *shardCount > 0, *replicaOf != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		logger.Fatal("-shards, -route, -shard-count and -replica-of are mutually exclusive")
	}
	if *replListen != "" && (*shards > 1 || *route != "" || *replicaOf != "") {
		logger.Fatal("-repl-listen applies to single-node and participant modes only")
	}

	walOpts := ldbs.Options{Obs: reg, SyncDelay: *syncDelay}
	switch {
	case *replicaOf != "":
		runFollower(cfg)
	case *route != "":
		runRouter(cfg)
	case *shardCount > 0:
		runParticipant(cfg, walOpts)
	case *shards > 1:
		runCluster(cfg, walOpts)
	default:
		runSingle(cfg, walOpts)
	}
}

// --- classic single node ---

func runSingle(cfg *config, walOpts ldbs.Options) {
	logger := cfg.logger
	var db *ldbs.DB
	var pers *ldbs.Persistence
	if cfg.dataDir != "" {
		pers = &ldbs.Persistence{Dir: cfg.dataDir, Obs: cfg.reg,
			Store: cfg.store, PageCacheBytes: cfg.pageCache,
			SyncDelay: walOpts.SyncDelay}
		recovered, err := pers.Open(demoSchemas())
		if err != nil {
			logger.Fatalf("recovery: %v", err)
		}
		defer pers.Close()
		db = recovered
		logger.Printf("recovered %s (committed so far: %d)", cfg.dataDir, db.Stats().Committed)
		go func() {
			t := time.NewTicker(cfg.ckptEvery)
			defer t.Stop()
			for range t.C {
				if err := pers.Checkpoint(db); err != nil {
					logger.Printf("checkpoint: %v", err)
				} else {
					logger.Printf("checkpoint written")
				}
			}
		}()
	} else {
		db = ldbs.Open(walOpts)
		if err := createDemoSchema(db); err != nil {
			logger.Fatalf("schema: %v", err)
		}
	}

	if err := seedDemo(db, demoRefs(), cfg.seats); err != nil {
		logger.Fatalf("seed: %v", err)
	}

	m := core.NewManager(core.NewLDBSStore(db), cfg.managerOpts()...)
	defer m.Close()
	if err := registerDemoObjects(m, demoRefs()); err != nil {
		logger.Fatalf("register: %v", err)
	}

	stopRepl := startReplSource(cfg, db)
	startHTTP(cfg, liveCount(m))
	go core.RunSupervisor(context.Background(), m, core.SupervisorConfig{
		IdleTimeout:     cfg.idle,
		WaitTimeout:     cfg.waitTO,
		SleepAbortAfter: cfg.sleepTO,
	}, 5*time.Second)

	srv := cfg.newFrontEnd(wire.NewManagerBackend(m))
	serveWithDrain(cfg, srv, cfg.banner(fmt.Sprintf("single node (data dir %q)", cfg.dataDir)), func() {
		stopRepl()
		m.Close()
		if pers != nil {
			if err := pers.Checkpoint(db); err != nil {
				logger.Printf("final checkpoint: %v", err)
			}
			if err := pers.Close(); err != nil {
				logger.Printf("wal close: %v", err)
			}
		}
	})
}

// --- in-process sharded cluster ---

func runCluster(cfg *config, walOpts ldbs.Options) {
	logger := cfg.logger
	ring := shard.NewRing(cfg.shards)
	locals := make([]*shard.LocalShard, cfg.shards)
	members := make([]shard.Shard, cfg.shards)
	for i := 0; i < cfg.shards; i++ {
		owned := ownedRefs(ring, i)
		dir := ""
		if cfg.dataDir != "" {
			dir = filepath.Join(cfg.dataDir, fmt.Sprintf("shard-%d", i))
		}
		s, err := shard.OpenLocal(shard.LocalConfig{
			Index:          i,
			Dir:            dir,
			Store:          cfg.store,
			PageCacheBytes: cfg.pageCache,
			Schemas:        demoSchemas(),
			Seed:           func(db *ldbs.DB) error { return seedDemo(db, owned, cfg.seats) },
			Objects:        objectMap(owned),
			Obs:            cfg.reg,
			Observability:  cfg.observ,
			ManagerOpts:    cfg.managerOpts(),
			WAL:            walOpts,
		})
		if err != nil {
			logger.Fatalf("shard %d: %v", i, err)
		}
		defer s.Close()
		locals[i] = s
		members[i] = s
		logger.Printf("shard %d up: %d objects (dir %q)", i, len(owned), dir)
		go core.RunSupervisor(context.Background(), s.Manager(), core.SupervisorConfig{
			IdleTimeout:     cfg.idle,
			WaitTimeout:     cfg.waitTO,
			SleepAbortAfter: cfg.sleepTO,
		}, 5*time.Second)
	}
	logPath := ""
	if cfg.dataDir != "" {
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
	defer cl.Close()
	if resolved, err := cl.ResolveInDoubt(); err != nil {
		logger.Fatalf("in-doubt resolution: %v", err)
	} else if resolved > 0 {
		logger.Printf("resolved %d in-doubt cross-shard commits", resolved)
	}
	if cfg.dataDir != "" {
		go func() {
			t := time.NewTicker(cfg.ckptEvery)
			defer t.Stop()
			for range t.C {
				for i, s := range locals {
					if err := s.Checkpoint(); err != nil {
						logger.Printf("checkpoint shard %d: %v", i, err)
					}
				}
			}
		}()
	}

	startHTTP(cfg, liveCountBackend(cl))
	srv := cfg.newFrontEnd(cl)
	serveWithDrain(cfg, srv, cfg.banner(fmt.Sprintf("%d in-process shards (data dir %q)", cfg.shards, cfg.dataDir)), func() {
		cl.Close()
		for i, s := range locals {
			if err := s.Checkpoint(); err != nil {
				logger.Printf("final checkpoint shard %d: %v", i, err)
			}
			s.Close()
		}
	})
}

// --- one participant of a multi-process cluster ---

func runParticipant(cfg *config, walOpts ldbs.Options) {
	logger := cfg.logger
	if cfg.shardIndex < 0 || cfg.shardIndex >= cfg.shardCount {
		logger.Fatalf("-shard-index %d out of range for -shard-count %d", cfg.shardIndex, cfg.shardCount)
	}
	ring := shard.NewRing(cfg.shardCount)
	owned := ownedRefs(ring, cfg.shardIndex)
	s, err := shard.OpenLocal(shard.LocalConfig{
		Index:          cfg.shardIndex,
		Dir:            cfg.dataDir,
		Store:          cfg.store,
		PageCacheBytes: cfg.pageCache,
		Schemas:        demoSchemas(),
		Seed:           func(db *ldbs.DB) error { return seedDemo(db, owned, cfg.seats) },
		Objects:        objectMap(owned),
		Obs:            cfg.reg,
		Observability:  cfg.observ,
		ManagerOpts:    cfg.managerOpts(),
		WAL:            walOpts,
	})
	if err != nil {
		logger.Fatalf("shard %d: %v", cfg.shardIndex, err)
	}
	defer s.Close()
	logger.Printf("participant %d/%d: %d owned objects", cfg.shardIndex, cfg.shardCount, len(owned))
	if cfg.dataDir != "" {
		go func() {
			t := time.NewTicker(cfg.ckptEvery)
			defer t.Stop()
			for range t.C {
				if err := s.Checkpoint(); err != nil {
					logger.Printf("checkpoint: %v", err)
				}
			}
		}()
	}
	m := s.Manager()
	stopRepl := startReplSource(cfg, s.DB())
	startHTTP(cfg, liveCount(m))
	go core.RunSupervisor(context.Background(), m, core.SupervisorConfig{
		IdleTimeout:     cfg.idle,
		WaitTimeout:     cfg.waitTO,
		SleepAbortAfter: cfg.sleepTO,
	}, 5*time.Second)

	srv := cfg.newFrontEnd(wire.NewManagerBackend(m))
	serveWithDrain(cfg, srv, cfg.banner(fmt.Sprintf("participant %d/%d (data dir %q)", cfg.shardIndex, cfg.shardCount, cfg.dataDir)), func() {
		stopRepl()
		if err := s.Checkpoint(); err != nil {
			logger.Printf("final checkpoint: %v", err)
		}
		s.Close()
	})
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
	if cfg.dataDir == "" {
		logger.Fatal("-repl-listen requires -data: the fencing epoch lives in the data directory")
	}
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
	if cfg.dataDir == "" {
		logger.Fatal("-replica-of requires -data for the follower's own directory")
	}
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
	logger := cfg.logger
	addrs := strings.Split(cfg.route, ",")
	members := make([]shard.Shard, len(addrs))
	for i, a := range addrs {
		members[i] = shard.NewRemoteShard(i, strings.TrimSpace(a))
	}
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
	defer cl.Close()
	if resolved, err := cl.ResolveInDoubt(); err != nil {
		// Participants may still be coming up; decisions stay pending and
		// a later resolution (or restart) completes them.
		logger.Printf("in-doubt resolution incomplete (%v) — %d pending", err, len(cl.InDoubt()))
	} else if resolved > 0 {
		logger.Printf("resolved %d in-doubt cross-shard commits", resolved)
	}

	startHTTP(cfg, liveCountBackend(cl))
	srv := cfg.newFrontEnd(cl)
	serveWithDrain(cfg, srv, cfg.banner(fmt.Sprintf("router over %d participants %v", len(addrs), addrs)), func() {
		cl.Close()
	})
}

// --- shared plumbing ---

// frontEnd is the surface serveWithDrain needs from either TCP front end:
// the classic wire.Server or the multiplexing gateway.Server.
type frontEnd interface {
	Serve(addr string) error
	Drain(timeout time.Duration) wire.DrainReport
}

// newFrontEnd builds the mode-independent front end over a backend: the
// gateway when -gateway is set, the classic server otherwise.
func (cfg *config) newFrontEnd(b wire.Backend) frontEnd {
	if cfg.gateway {
		return gateway.NewServer(b, gateway.Options{
			Logger:           cfg.logger,
			Obs:              cfg.reg,
			InvokeTimeout:    cfg.invokeTO,
			Lanes:            cfg.gwLanes,
			LaneDepth:        cfg.gwLaneDepth,
			LaneWorkers:      cfg.gwWorkers,
			MaxSessions:      cfg.gwSessions,
			Rate:             cfg.gwRate,
			Burst:            cfg.gwBurst,
			TenantRate:       cfg.gwTenantRate,
			TenantBurst:      cfg.gwTenantBurst,
			SessionRetention: cfg.gwRetention,
		})
	}
	return wire.NewBackendServer(b, wire.ServerOptions{Logger: cfg.logger, InvokeTimeout: cfg.invokeTO, Obs: cfg.reg})
}

// banner prefixes the mode description with the front-end kind.
func (cfg *config) banner(mode string) string {
	if cfg.gateway {
		return "gateway over " + mode
	}
	return mode
}

// liveCount counts a manager's non-terminal transactions.
func liveCount(m *core.Manager) func() float64 {
	return func() float64 {
		var n int
		for _, ti := range m.Transactions() {
			if !ti.State.Terminal() {
				n++
			}
		}
		return float64(n)
	}
}

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

// serveWithDrain serves until SIGTERM/SIGINT, then drains gracefully and
// runs the mode's shutdown hook.
func serveWithDrain(cfg *config, srv frontEnd, banner string, shutdown func()) {
	logger := cfg.logger
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

	logger.Printf("middleware listening on %s — %s", cfg.addr, banner)
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

func createDemoSchema(db *ldbs.DB) error {
	for _, s := range demoSchemas() {
		if err := db.CreateTable(s); err != nil {
			return err
		}
	}
	return nil
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

func registerDemoObjects(m *core.Manager, refs []demoRef) error {
	for _, d := range refs {
		if err := m.RegisterAtomicObject(core.ObjectID(d.object), d.ref); err != nil {
			return err
		}
	}
	return nil
}
