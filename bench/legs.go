package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/ldbs"
	"preserial/internal/ldbs/store"
	_ "preserial/internal/ldbs/store/mem" // register the mem storage driver
	"preserial/internal/sem"
	"preserial/internal/shard"
	"preserial/internal/wire"
)

// The isolated legs time one layer at a time through its public functions:
// a fixed number of operations, one goroutine, nothing else running. They
// run once per traced invocation, after the workload. A leg's number is a
// floor for what its layer costs inside the composed stack — no contention,
// warm caches — so it bounds what an optimisation of that layer can save.

// legOps scales a leg's operation count; quick mode runs a fiftieth.
func legOps(n int, quick bool) int {
	if quick {
		n /= 50
		if n < 8 {
			n = 8
		}
	}
	return n
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

// perOpNS times n back-to-back calls as one batch: right for calls far
// shorter than the clock's resolution.
func perOpNS(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// medianUS times each of n calls on its own and returns the median in
// microseconds: right for calls long enough to time singly, where a median
// shrugs off the odd scheduler hiccup.
func medianUS(n int, fn func(i int) error) (float64, error) {
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		durs = append(durs, float64(time.Since(start))/1e3)
	}
	return median(durs), nil
}

// runLegs fills values with every leg metric. dir is scratch space.
func runLegs(values map[string]float64, dir string, quick bool) error {
	legs := []struct {
		name string
		run  func(values map[string]float64, dir string, quick bool) error
	}{
		{"sem", semLegs}, {"wire", wireLegs}, {"gateway", gatewayLegs}, {"shard", shardLegs},
		{"ldbs.repl", replLegs}, {"core", coreLegs}, {"ldbs", ldbsLegs}, {"ldbs.store", storeLegs},
	}
	for _, l := range legs {
		sub := filepath.Join(dir, l.name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		if err := l.run(values, sub, quick); err != nil {
			return fmt.Errorf("%s legs: %w", l.name, err)
		}
	}
	values["gateway.dispatch_self_us"] = values["gateway.rtt_us"] - values["wire.rtt_us"]
	return nil
}

// --- sem ---

func semLegs(values map[string]float64, _ string, quick bool) error {
	n := legOps(200_000, quick)
	pairs := len(sem.Classes) * len(sem.Classes)
	values["sem.compat_ns"] = perOpNS(n, func(int) {
		for _, a := range sem.Classes {
			for _, b := range sem.Classes {
				if sem.Compatible(a, b) {
					sink++
				}
			}
		}
	}) / float64(pairs)
	rec := sem.AddSubReconciler{}
	read, perm := sem.Int(100), sem.Int(90)
	values["sem.reconcile_ns"] = perOpNS(legOps(2_000_000, quick), func(i int) {
		v, err := rec.Reconcile(read, sem.Int(int64(99-i%7)), perm)
		if err == nil {
			sink += int(v.Int64())
		}
	})
	return nil
}

// --- wire ---

// stubBackend is a wire.Backend that does nothing, so the front ends and the
// engine above it can be timed alone.
type stubBackend struct{}

type stubSession struct{}

func (stubSession) Invoke(context.Context, core.ObjectID, sem.Op) error { return nil }
func (stubSession) Read(core.ObjectID) (sem.Value, error)               { return sem.Int(0), nil }
func (stubSession) Apply(core.ObjectID, sem.Value) error                { return nil }
func (stubSession) Commit(context.Context) error                        { return nil }
func (stubSession) Abort() error                                        { return nil }
func (stubSession) Sleep() error                                        { return nil }
func (stubSession) Awake() (bool, error)                                { return true, nil }

func (stubBackend) Begin(string) (wire.Session, error)              { return stubSession{}, nil }
func (stubBackend) TxState(string) (core.State, error)              { return core.StateActive, nil }
func (stubBackend) Sleep(string) error                              { return nil }
func (stubBackend) SleepAllLive() []string                          { return nil }
func (stubBackend) Sweep(time.Duration) []string                    { return nil }
func (stubBackend) Transactions() []wire.TxSummaryJSON              { return nil }
func (stubBackend) Objects() []string                               { return nil }
func (stubBackend) ObjectInfo(string) (*wire.ObjectInfoJSON, error) { return nil, nil }
func (stubBackend) Stats() map[string]uint64                        { return nil }

// The canonical messages: the invoke request and ok response of one booking
// on a typical object, as wire.Conn and the engine build them.
const (
	canonTx     = "w0-100000"
	canonObject = "Seats/k00000"
)

func bookingRequests(tx string) []*wire.Request {
	minusOne := wire.FromSem(sem.Int(-1))
	return []*wire.Request{
		{Op: wire.OpBegin, Tx: tx},
		{Op: wire.OpInvoke, Tx: tx, Object: canonObject, Class: wire.ClassName(sem.AddSub)},
		{Op: wire.OpApply, Tx: tx, Object: canonObject, Operand: &minusOne},
		{Op: wire.OpCommit, Tx: tx},
	}
}

func bookingResponses() []*wire.Response {
	return []*wire.Response{{OK: true}, {OK: true, Granted: true}, {OK: true}, {OK: true}}
}

func wireLegs(values map[string]float64, _ string, quick bool) error {
	reqs, resps := bookingRequests(canonTx), bookingResponses()
	invoke, ok := reqs[1], resps[1]

	// Codec: encode and decode the canonical invoke request and its ok
	// response (it is encoding/json today); the mean over the two messages.
	var buf bytes.Buffer
	n := legOps(100_000, quick)
	var encErr error
	values["wire.encode_ns"] = perOpNS(n, func(int) {
		buf.Reset()
		if err := wire.WriteMsg(&buf, invoke); err != nil {
			encErr = err
		}
		if err := wire.WriteMsg(&buf, ok); err != nil {
			encErr = err
		}
	}) / 2
	if encErr != nil {
		return encErr
	}
	frames := append([]byte(nil), buf.Bytes()...)
	var decErr error
	values["wire.decode_ns"] = perOpNS(n, func(int) {
		rd := bytes.NewReader(frames)
		var rq wire.Request
		var rs wire.Response
		if err := wire.ReadMsg(rd, &rq); err != nil {
			decErr = err
		}
		if err := wire.ReadMsg(rd, &rs); err != nil {
			decErr = err
		}
	}) / 2
	if decErr != nil {
		return decErr
	}

	// Exact bytes on the wire for one single-object booking, both directions.
	buf.Reset()
	for i := range reqs {
		if err := wire.WriteMsg(&buf, reqs[i]); err != nil {
			return err
		}
		if err := wire.WriteMsg(&buf, resps[i]); err != nil {
			return err
		}
	}
	values["wire.bytes_per_booking"] = float64(buf.Len())

	// Engine alone: dispatch, session registry and the exactly-once window
	// (requests carry sequence numbers, as a resilient client stamps them).
	eng := wire.NewEngine(stubBackend{}, wire.EngineOptions{})
	defer eng.Stop()
	owner := wire.NewOwner("leg")
	var served error
	perTx := perOpNS(legOps(20_000, quick), func(i int) {
		for k, rq := range bookingRequests(fmt.Sprintf("e-%d", i)) {
			rq.Seq = uint64(k + 1)
			if resp := eng.Serve(rq, owner); !resp.OK {
				served = fmt.Errorf("engine refused %s: %s", rq.Op, resp.Err)
			}
		}
	})
	if served != nil {
		return served
	}
	values["wire.engine_serve_us"] = perTx / 4 / 1e3

	// Round trip: wire.Conn → loopback → wire.Server → engine → stub.
	srv := wire.NewBackendServer(stubBackend{}, wire.ServerOptions{})
	addr, done, err := serve(srv, func() string { return srv.Addr().String() })
	if err != nil {
		return err
	}
	defer func() {
		srv.Close()
		<-done
	}()
	cn, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cn.Close()
	values["wire.rtt_us"], err = bookingRTT(legOps(2000, quick), cn, "r")
	return err
}

// bookingRTT runs n bookings through c over a stub and returns the median
// round trip of a single call in microseconds.
func bookingRTT(n int, c bookingCalls, prefix string) (float64, error) {
	durs := make([]float64, 0, 4*n)
	timed := func(fn func() error) error {
		start := time.Now()
		err := fn()
		durs = append(durs, float64(time.Since(start))/1e3)
		return err
	}
	for i := 0; i < n; i++ {
		tx := fmt.Sprintf("%s-%d", prefix, i)
		steps := []func() error{
			func() error { return c.Begin(tx) },
			func() error { return c.Invoke(tx, canonObject, sem.AddSub, "") },
			func() error { return c.Apply(tx, canonObject, sem.Int(-1)) },
			func() error { return c.Commit(tx) },
		}
		for _, step := range steps {
			if err := timed(step); err != nil {
				return 0, err
			}
		}
	}
	return median(durs), nil
}

// --- gateway ---

func gatewayLegs(values map[string]float64, _ string, quick bool) error {
	gw := gateway.NewServer(stubBackend{}, gatewayOpts(nil))
	addr, done, err := serve(gw, func() string { return gw.Addr().String() })
	if err != nil {
		return err
	}
	defer func() {
		gw.Close()
		<-done
	}()
	mc, err := gateway.DialMux(addr)
	if err != nil {
		return err
	}
	defer mc.Close()
	sc, _, err := mc.Session("leg", "")
	if err != nil {
		return err
	}
	// Same calls as wire.rtt_us, through the mux, the lanes and a session.
	if values["gateway.rtt_us"], err = bookingRTT(legOps(2000, quick), sc, "g"); err != nil {
		return err
	}
	// A new session attaches and detaches: what a client's first contact and
	// its disconnection cost the session table.
	values["gateway.attach_us"], err = medianUS(legOps(2000, quick), func(i int) error {
		id := fmt.Sprintf("a-%d", i)
		if _, _, err := mc.Attach(id, ""); err != nil {
			return err
		}
		return mc.Detach(id)
	})
	return err
}

// --- shard ---

func shardLegs(values map[string]float64, dir string, quick bool) error {
	ring := shard.NewRing(clusterShards)
	objects := 256
	names := make([]string, objects)
	for i := range names {
		names[i] = seatObject(i)
	}
	values["shard.route_ns"] = perOpNS(legOps(200_000, quick), func(i int) { sink += ring.Route(names[i%objects]) })

	// Coordinator log: one decision and its done record, two real fsyncs.
	log, _, err := shard.OpenCoordLog(filepath.Join(dir, "coord.wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	values["shard.coordlog_us"], err = medianUS(legOps(150, quick), func(i int) error {
		tx := fmt.Sprintf("d-%d", i)
		d := shard.Decision{Tx: tx, Participants: []shard.Participant{
			{Shard: 0, Marker: shard.MarkerWrite(tx), Writes: []wire.SSTWriteJSON{wire.FromCoreWrite(core.SSTWrite{Ref: seatRef(0), Value: sem.Int(1)})}},
			{Shard: 1, Marker: shard.MarkerWrite(tx), Writes: []wire.SSTWriteJSON{wire.FromCoreWrite(core.SSTWrite{Ref: seatRef(1), Value: sem.Int(1)})}},
		}}
		if err := log.LogDecide(d); err != nil {
			return err
		}
		return log.LogDone(tx)
	})
	if err != nil {
		return err
	}

	// The coordinator over four volatile in-process shards: routing and the
	// two-phase round with no network, no fsync, no replication.
	byShard := make([][]int, clusterShards)
	for i := 0; i < objects; i++ {
		s := ring.Route(names[i])
		byShard[s] = append(byShard[s], i)
	}
	members := make([]shard.Shard, clusterShards)
	for s := range members {
		mine := byShard[s]
		refs := make(map[string]core.StoreRef, len(mine))
		for _, obj := range mine {
			refs[names[obj]] = seatRef(obj)
		}
		ls, err := shard.OpenLocal(shard.LocalConfig{Index: s, Schemas: seatsSchemas(),
			Seed: func(db *ldbs.DB) error { return seedSeats(db, mine) }, Objects: refs, ManagerOpts: managerOpts(nil)})
		if err != nil {
			return err
		}
		defer ls.Close()
		members[s] = ls
	}
	cl, err := shard.NewCluster(shard.Config{Shards: members})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx := context.Background()
	book := func(tx string, objs ...int) (float64, error) {
		sess, err := cl.Begin(tx)
		if err != nil {
			return 0, err
		}
		for _, obj := range objs {
			id := core.ObjectID(names[obj])
			if err := sess.Invoke(ctx, id, sem.Op{Class: sem.AddSub}); err != nil {
				return 0, err
			}
			if err := sess.Apply(id, sem.Int(-1)); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		err = sess.Commit(ctx)
		return float64(time.Since(start)) / 1e3, err
	}
	n := legOps(1000, quick)
	single, cross := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		a := byShard[i%clusterShards][i%len(byShard[i%clusterShards])]
		us, err := book(fmt.Sprintf("s-%d", i), a)
		if err != nil {
			return err
		}
		single = append(single, us)
		other := (i + 1) % clusterShards
		b := byShard[other][i%len(byShard[other])]
		if us, err = book(fmt.Sprintf("x-%d", i), a, b); err != nil {
			return err
		}
		cross = append(cross, us)
	}
	values["shard.single_commit_us"] = median(single)
	values["shard.cross_commit_us"] = median(cross)
	return nil
}

// --- ldbs.repl ---

// replLegs times a commit on a primary/follower pair with semi-synchronous
// and with asynchronous replication; the difference is one ship → ack.
func replLegs(values map[string]float64, dir string, quick bool) error {
	n := legOps(150, quick)
	commit := func(sub string, async bool) (float64, error) {
		objs := iota0(64)
		refs := make(map[string]core.StoreRef, len(objs))
		for _, obj := range objs {
			refs[seatObject(obj)] = seatRef(obj)
		}
		// The fencing epoch file is written before the primary's directory
		// would otherwise be created.
		primary := filepath.Join(dir, sub, "primary")
		if err := os.MkdirAll(primary, 0o755); err != nil {
			return 0, err
		}
		rs, err := shard.OpenReplicaShard(shard.ReplicaConfig{
			Local: shard.LocalConfig{Dir: primary, Store: "disk", Schemas: seatsSchemas(),
				Seed: func(db *ldbs.DB) error { return seedSeats(db, objs) }, Objects: refs, ManagerOpts: managerOpts(nil)},
			FollowerDir: filepath.Join(dir, sub, followerDirPrefix+"0"),
			AsyncRepl:   async,
		})
		if err != nil {
			return 0, err
		}
		defer rs.Close()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if info, _ := rs.ReplicaInfo(); info.Followers > 0 && info.LagBytes == 0 {
				break
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("follower did not attach")
			}
			time.Sleep(2 * time.Millisecond)
		}
		ctx := context.Background()
		return medianCommitUS(n, func(i int) (func() error, error) {
			sess, err := rs.Begin(fmt.Sprintf("%s-%d", sub, i))
			if err != nil {
				return nil, err
			}
			id := core.ObjectID(seatObject(i % len(objs)))
			if err := sess.Invoke(ctx, id, sem.Op{Class: sem.AddSub}); err != nil {
				return nil, err
			}
			if err := sess.Apply(id, sem.Int(-1)); err != nil {
				return nil, err
			}
			return func() error { return sess.Commit(ctx) }, nil
		})
	}
	semi, err := commit("semisync", false)
	if err != nil {
		return err
	}
	async, err := commit("async", true)
	if err != nil {
		return err
	}
	values["ldbs.repl.ack_us"] = semi - async
	return nil
}

// medianCommitUS prepares n transactions one after another and times only
// the commit call each prepare returns.
func medianCommitUS(n int, prepare func(i int) (commit func() error, err error)) (float64, error) {
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		commit, err := prepare(i)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := commit(); err != nil {
			return 0, err
		}
		durs = append(durs, float64(time.Since(start))/1e3)
	}
	return median(durs), nil
}

// --- core ---

func coreLegs(values map[string]float64, _ string, quick bool) error {
	const objects = 1024
	mem := core.NewMemStore()
	for i := 0; i < objects; i++ {
		mem.Seed(seatRef(i), sem.Int(seatsPerRow))
	}
	m := core.NewManager(mem, managerOpts(nil)...)
	defer m.Close()
	if err := registerSeats(m, iota0(objects)); err != nil {
		return err
	}
	ctx := context.Background()
	addSub := sem.Op{Class: sem.AddSub}

	// One whole booking through the synchronous client façade.
	var err error
	values["core.booking_us"], err = medianUS(legOps(5000, quick), func(i int) error {
		c, err := m.BeginClient(core.TxID(fmt.Sprintf("k-%d", i)))
		if err != nil {
			return err
		}
		id := core.ObjectID(seatObject(i % objects))
		if err := c.Invoke(ctx, id, addSub); err != nil {
			return err
		}
		if err := c.Apply(id, sem.Int(-1)); err != nil {
			return err
		}
		return c.Commit(ctx)
	})
	if err != nil {
		return err
	}

	// The monitor-free read path.
	var readErr error
	values["core.snapshot_read_ns"] = perOpNS(legOps(200_000, quick), func(i int) {
		v, err := m.SnapshotRead(core.ObjectID(seatObject(i%objects)), "")
		if err != nil {
			readErr = err
		}
		sink += int(v.Int64() & 1)
	})
	if readErr != nil {
		return readErr
	}

	// Sleep, awake and a supervisor pass with many other sleepers present:
	// the sleepers index and the per-commit history pruning scale with them.
	others := legOps(10_000, quick)
	for i := 0; i < others; i++ {
		tx := core.TxID(fmt.Sprintf("z-%d", i))
		if err := m.Begin(tx); err != nil {
			return err
		}
		if _, err := m.Invoke(tx, core.ObjectID(seatObject(i%objects)), addSub); err != nil {
			return err
		}
		if err := m.Sleep(tx); err != nil {
			return err
		}
	}
	n := legOps(2000, quick)
	sleeps, awakes := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		c, err := m.BeginClient(core.TxID(fmt.Sprintf("y-%d", i)))
		if err != nil {
			return err
		}
		id := core.ObjectID(seatObject(i % objects))
		if err := c.Invoke(ctx, id, addSub); err != nil {
			return err
		}
		if err := c.Apply(id, sem.Int(-1)); err != nil {
			return err
		}
		start := time.Now()
		if err := c.Sleep(); err != nil {
			return err
		}
		mid := time.Now()
		resumed, err := c.Awake()
		end := time.Now()
		if err != nil {
			return err
		}
		if !resumed {
			return fmt.Errorf("add/sub sleeper aborted among add/sub sleepers")
		}
		sleeps = append(sleeps, float64(mid.Sub(start))/1e3)
		awakes = append(awakes, float64(end.Sub(mid))/1e3)
		if err := c.Commit(ctx); err != nil {
			return err
		}
	}
	values["core.sleep_us"] = median(sleeps)
	values["core.awake_us"] = median(awakes)
	us, err := medianUS(20, func(int) error {
		m.Supervise(supervisorPolicy)
		return nil
	})
	values["core.supervise_ms"] = us / 1e3
	return err
}

// --- ldbs ---

func ldbsLegs(values map[string]float64, dir string, quick bool) error {
	const rows = 1024
	ctx := context.Background()
	set := func(db *ldbs.DB, i int) error {
		tx := db.Begin()
		if err := tx.Set(ctx, seatsTable, seatKey(i%rows), seatsColumn, sem.Int(int64(i))); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit(ctx)
	}

	// Volatile engine: lock acquire and release plus apply, no log.
	vol := ldbs.Open(ldbs.Options{})
	for _, s := range seatsSchemas() {
		if err := vol.CreateTable(s); err != nil {
			return err
		}
	}
	if err := seedSeats(vol, iota0(rows)); err != nil {
		return err
	}
	var err error
	if values["ldbs.tx_us"], err = medianUS(legOps(20_000, quick), func(i int) error { return set(vol, i) }); err != nil {
		return err
	}

	// The same transaction through Persistence: WAL append and a real fsync,
	// one committer, so every commit pays its own sync.
	pers := &ldbs.Persistence{Dir: dir, Store: "mem"}
	db, err := pers.Open(seatsSchemas())
	if err != nil {
		return err
	}
	defer pers.Close()
	if err := seedSeats(db, iota0(rows)); err != nil {
		return err
	}
	walPath := filepath.Join(dir, "WAL")
	before, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	n := legOps(150, quick)
	if values["ldbs.commit_fsync_us"], err = medianUS(n, func(i int) error { return set(db, i) }); err != nil {
		return err
	}
	after, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	values["ldbs.wal_bytes_per_commit"] = float64(after.Size()-before.Size()) / float64(n)
	return nil
}

// --- ldbs.store ---

// storeLegs times a one-row Apply over a 65 536-row table on each driver
// configuration: mem, disk with the table fitting the cache, disk with a
// cache of 10 % of the table. Read cost (the page walk), write cost and
// space trade against each other, so the three are reported together.
func storeLegs(values map[string]float64, dir string, quick bool) error {
	rows := burstObjects
	if quick {
		rows = 4096
	}
	n := legOps(20_000, quick)
	seed := func(d store.Driver) error {
		if _, err := d.CreateTable(seatsTable); err != nil {
			return err
		}
		batch := make([]store.Write, 0, seedBatch)
		for i := 0; i < rows; i++ {
			batch = append(batch, store.Write{Table: seatsTable, Key: seatKey(i), Row: store.Row{seatsColumn: sem.Int(seatsPerRow)}})
			if len(batch) == seedBatch || i == rows-1 {
				if err := d.Apply(batch); err != nil {
					return err
				}
				batch = batch[:0]
			}
		}
		return d.Checkpoint()
	}
	apply := func(d store.Driver) (float64, error) {
		rng := rand.New(rand.NewSource(1))
		return medianUS(n, func(i int) error {
			return d.Apply([]store.Write{{Table: seatsTable, Key: seatKey(rng.Intn(rows)),
				Row: store.Row{seatsColumn: sem.Int(int64(i))}}})
		})
	}
	open := func(name, sub string, cache int64) (store.Driver, error) {
		p := filepath.Join(dir, sub)
		if err := os.MkdirAll(p, 0o755); err != nil {
			return nil, err
		}
		return store.Open(name, store.Config{Dir: p, CacheBytes: cache})
	}

	mem, err := open("mem", "mem", 0)
	if err != nil {
		return err
	}
	defer mem.Close()
	if err := seed(mem); err != nil {
		return err
	}
	if values["ldbs.store.apply_us.mem"], err = apply(mem); err != nil {
		return err
	}

	// Seed the disk store once with a cache that holds it all, measure, then
	// reopen the same file with a tenth of it.
	fit, err := open("disk", "disk", 1<<30)
	if err != nil {
		return err
	}
	if err := seed(fit); err != nil {
		fit.Close()
		return err
	}
	st := fit.Stats()
	if values["ldbs.store.apply_us.disk_fit"], err = apply(fit); err != nil {
		fit.Close()
		return err
	}
	if err := fit.Checkpoint(); err != nil {
		fit.Close()
		return err
	}
	if err := fit.Close(); err != nil {
		return err
	}
	small, err := open("disk", "disk", st.FilePages*int64(st.PageSize)/10)
	if err != nil {
		return err
	}
	defer small.Close()
	if _, err := small.CreateTable(seatsTable); err != nil {
		return err
	}
	values["ldbs.store.apply_us.disk_10pct"], err = apply(small)
	return err
}
