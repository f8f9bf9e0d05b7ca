package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/ldbs"
	"preserial/internal/obs"
	"preserial/internal/shard"
	"preserial/internal/wire"
)

// clusterBooking: gateway.Server → shard.Cluster (CoordLog on disk) → 4 ×
// shard.ReplicaShard (primary + semi-sync follower each, disk store, default
// page cache — the 4 096-object working set fits), loopback TCP, clients are
// gateway.MuxConn sessions. 80 % single-object bookings, 20 % two-object
// bookings whose objects sit on different shards (cross-shard 2PC). No
// checkpoints during the run.
//
// Why: the composed stack the repository had no number for. Commit latency
// here is gateway hop + routing + (2PC round + CoordLog fsync) + SST + WAL
// fsync + follower ack, so shard, ldbs.repl and WAL changes show here and
// must not move wire_read_mostly.
type clusterBooking struct {
	e        *env
	reg      *obs.Registry
	shards   []*shard.ReplicaShard
	cl       *shard.Cluster
	gw       *gateway.Server
	done     <-chan error
	conns    []*gateway.MuxConn
	sessions []*gateway.SessionClient
	ring     *shard.Ring
	model    []int64
	recs     []*recorder
	storeDrv string
	redo     int64 // GTM commits a reopen has to redo, fixed at close
}

const (
	clusterShards  = 4
	clusterObjects = 4096
)

func (w *clusterBooking) objects() int {
	if w.e.quick {
		return 256
	}
	return clusterObjects
}

func (w *clusterBooking) primaryDir(i int) string {
	return filepath.Join(w.e.dir, fmt.Sprintf("primary-%d", i))
}

func (w *clusterBooking) followerDir(i int) string {
	return filepath.Join(w.e.dir, fmt.Sprintf("%s%d", followerDirPrefix, i))
}

func (w *clusterBooking) setup(e *env) error {
	w.e = e
	w.reg = obs.NewRegistry()
	w.ring = shard.NewRing(clusterShards)
	w.storeDrv = "disk"
	if e.tr != nil {
		w.storeDrv = tracedDiskDriver
	}
	observ := core.NewObservability(w.reg, traceDepth)
	total := w.objects()
	owned := make([][]int, clusterShards)
	for obj := 0; obj < total; obj++ {
		s := w.ring.Route(seatObject(obj))
		owned[s] = append(owned[s], obj)
	}
	members := make([]shard.Shard, clusterShards)
	for i := 0; i < clusterShards; i++ {
		mine := owned[i]
		objects := make(map[string]core.StoreRef, len(mine))
		for _, obj := range mine {
			objects[seatObject(obj)] = seatRef(obj)
		}
		// The fencing epoch file is written before the primary's directory
		// would otherwise be created.
		if err := os.MkdirAll(w.primaryDir(i), 0o755); err != nil {
			return err
		}
		rs, err := shard.OpenReplicaShard(shard.ReplicaConfig{
			Local: shard.LocalConfig{
				Index:         i,
				Dir:           w.primaryDir(i),
				Store:         w.storeDrv,
				Schemas:       seatsSchemas(),
				Seed:          func(db *ldbs.DB) error { return seedSeats(db, mine) },
				Objects:       objects,
				Obs:           w.reg,
				Observability: observ,
				ManagerOpts:   managerOpts(nil),
			},
			FollowerDir: w.followerDir(i),
		})
		if err != nil {
			return err
		}
		w.shards = append(w.shards, rs)
		members[i] = rs
		if e.tr != nil {
			if members[i], err = traceShard(rs, e.tr); err != nil {
				return err
			}
		}
	}
	// Semi-sync arms only while a follower is attached: wait until every
	// follower has caught up, so every measured commit waits for its ack.
	if err := w.awaitFollowers(10 * time.Second); err != nil {
		return err
	}
	cl, err := shard.NewCluster(shard.Config{
		Shards:       members,
		CoordLogPath: filepath.Join(e.dir, "coord.wal"),
		Obs:          w.reg,
	})
	if err != nil {
		return err
	}
	w.cl = cl
	var backend wire.Backend = cl
	if e.tr != nil {
		if backend, err = traceBackend(backend, e.tr); err != nil {
			return err
		}
	}
	w.gw = gateway.NewServer(backend, gatewayOpts(w.reg))
	addr, done, err := serve(w.gw, func() string { return w.gw.Addr().String() })
	if err != nil {
		return err
	}
	w.done = done
	for i := 0; i < e.clients; i++ {
		mc, err := gateway.DialMux(addr)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, mc)
		sc, _, err := mc.Session(fmt.Sprintf("booker-%d", i), "")
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, sc)
	}
	w.model = newModel(total)
	w.recs = make([]*recorder, e.clients)
	return nil
}

// awaitFollowers waits until every shard has an attached follower with no
// unacknowledged WAL bytes.
func (w *clusterBooking) awaitFollowers(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := true
		for _, rs := range w.shards {
			info, _ := rs.ReplicaInfo()
			if info.Followers < 1 || info.LagBytes != 0 {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("followers did not catch up within %s", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (w *clusterBooking) client(i int, r *recorder, stop *atomic.Bool) {
	w.recs[i] = r
	sc := w.sessions[i]
	gen := newBookingGen(w.e.seed, i, partition(len(w.model), w.e.clients, i), clusterShards,
		func(obj int) int { return w.ring.Route(seatObject(obj)) })
	names := make([]string, 0, 2)
	for n := 0; !stop.Load(); n++ {
		t := gen.next()
		names = names[:0]
		for _, obj := range t.objs[:t.n] {
			names = append(names, seatObject(obj))
		}
		if bookOne(r, sc, fmt.Sprintf("b%d-%d", i, n), names...) {
			for _, obj := range t.objs[:t.n] {
				w.model[obj]--
			}
		}
		r.task()
	}
}

func (w *clusterBooking) counters() counters { return readCounters(w.reg) }

// verify checks the primaries against the model and, once replication has
// drained, that every follower holds exactly what its primary holds.
func (w *clusterBooking) verify() (verifyReport, error) {
	if err := w.awaitFollowers(5 * time.Second); err != nil {
		return verifyReport{}, err
	}
	checked, bad, first, err := checkModel(w.model, func(obj int) (int64, error) {
		return readSeat(w.shards[w.ring.Route(seatObject(obj))].DB(), obj)
	})
	if err != nil {
		return verifyReport{}, err
	}
	// Follower ≡ primary. An ack means durable on the follower, and applying
	// follows at once; retry briefly before calling a difference real.
	var fbad int
	var ffirst string
	for attempt := 0; attempt < 50; attempt++ {
		_, fbad, ffirst, err = checkModel(w.model, func(obj int) (int64, error) {
			return readSeat(w.shards[w.ring.Route(seatObject(obj))].FollowerDB(), obj)
		})
		if err != nil {
			return verifyReport{}, err
		}
		if fbad == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fbad > 0 && first == "" {
		first = "follower: " + ffirst
	}
	return verifyReport{Checked: 2 * checked, Mismatches: bad + fbad, First: first,
		CommitPct: commitShare(w.recs...)}, nil
}

func (w *clusterBooking) close() error {
	if w.reg != nil {
		w.redo = int64(readCounters(w.reg)[cCommits]) // no checkpoint ever ran
	}
	for _, c := range w.conns {
		c.Close()
	}
	w.conns = nil
	var err error
	if w.gw != nil {
		err = w.gw.Close()
		if w.done != nil {
			<-w.done
		}
		w.gw = nil
	}
	if w.cl != nil {
		if cerr := w.cl.Close(); err == nil {
			err = cerr
		}
		w.cl = nil
	}
	for _, rs := range w.shards {
		rs.Close()
	}
	w.shards = nil
	return err
}

// recover reopens every primary directory the way a restarted gtmd would —
// page file, then WAL redo (no checkpoint ran, so every commit of the run is
// redone) — and checks the model against what it finds.
func (w *clusterBooking) recover() (recoverReport, error) {
	rep := recoverReport{Durable: true}
	dbs := make([]*ldbs.DB, clusterShards)
	start := time.Now()
	for i := range dbs {
		pers := &ldbs.Persistence{Dir: w.primaryDir(i), Store: "disk"}
		db, err := pers.Open(shard.HiddenSchemas(seatsSchemas()))
		if err != nil {
			return rep, fmt.Errorf("reopening shard %d: %w", i, err)
		}
		defer pers.Close()
		dbs[i] = db
	}
	rep.Elapsed = time.Since(start)
	rep.Commits = w.redo
	var err error
	rep.Checked, rep.Mismatches, rep.First, err = checkModel(w.model, func(obj int) (int64, error) {
		return readSeat(dbs[w.ring.Route(seatObject(obj))], obj)
	})
	return rep, err
}
