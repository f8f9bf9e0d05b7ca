package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/ldbs/store"
	"preserial/internal/ldbs/store/tck"
	"preserial/internal/sem"
	"preserial/internal/shard"
	"preserial/internal/wire"
)

// The program chooses code paths by asserting these optional interfaces. A
// decorator that adds or hides one makes the traced run a different program.
func backendSurface(v any) [3]bool {
	_, snap := v.(wire.SnapshotBackend)
	_, topo := v.(wire.ShardBackend)
	_, replay := v.(wire.ReplayBackend)
	return [3]bool{snap, topo, replay}
}

func sessionSurface(v any) [3]bool {
	_, tp := v.(wire.TwoPhaseSession)
	_, ro := v.(wire.ReadOnlySession)
	_, dn := v.(doner)
	return [3]bool{tp, ro, dn}
}

func shardSurface(v any) [2]bool {
	_, info := v.(shard.ReplicaInfoProvider)
	_, prom := v.(promoter)
	return [2]bool{info, prom}
}

func storeSurface(v any) [2]bool {
	_, batch := v.(core.BatchStore)
	_, val := v.(core.SSTValidator)
	return [2]bool{batch, val}
}

func testManager(t *testing.T, objects int) (*core.Manager, *ldbs.DB) {
	t.Helper()
	db := ldbs.Open(ldbs.Options{})
	for _, s := range seatsSchemas() {
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := seedSeats(db, iota0(objects)); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(core.NewLDBSStore(db), managerOpts(nil)...)
	t.Cleanup(m.Close)
	if err := registerSeats(m, iota0(objects)); err != nil {
		t.Fatal(err)
	}
	return m, db
}

func testLocalShards(t *testing.T) []shard.Shard {
	t.Helper()
	ring := shard.NewRing(clusterShards)
	members := make([]shard.Shard, clusterShards)
	for s := range members {
		refs := make(map[string]core.StoreRef)
		var mine []int
		for obj := 0; obj < 64; obj++ {
			if ring.Route(seatObject(obj)) == s {
				refs[seatObject(obj)] = seatRef(obj)
				mine = append(mine, obj)
			}
		}
		ls, err := shard.OpenLocal(shard.LocalConfig{Index: s, Schemas: seatsSchemas(),
			Seed: func(db *ldbs.DB) error { return seedSeats(db, mine) }, Objects: refs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ls.Close)
		members[s] = ls
	}
	return members
}

func TestBackendAndSessionDecoratorsKeepTheSurface(t *testing.T) {
	tr := newTracer(time.Now(), 64)
	m, _ := testManager(t, 8)
	cl, err := shard.NewCluster(shard.Config{Shards: testLocalShards(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for name, inner := range map[string]wire.Backend{
		"manager backend": wire.NewManagerBackend(m),
		"shard cluster":   cl,
		"stub":            stubBackend{},
	} {
		dec, err := traceBackend(inner, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := backendSurface(dec), backendSurface(inner); got != want {
			t.Errorf("%s: decorated backend exposes %v (snapshot, shard, replay), inner %v", name, got, want)
		}
		sess, err := inner.Begin("plain-" + name)
		if err != nil {
			t.Fatal(err)
		}
		dsess, err := dec.Begin("traced-" + name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sessionSurface(dsess), sessionSurface(sess); got != want {
			t.Errorf("%s: decorated session exposes %v (two-phase, read-only, done), inner %v", name, got, want)
		}
	}

	// Snapshot sessions have their own shape.
	inner := wire.NewManagerBackend(m).(wire.SnapshotBackend)
	dec, err := traceBackend(wire.NewManagerBackend(m), tr)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := inner.BeginSnapshot("s1")
	if err != nil {
		t.Fatal(err)
	}
	dsnap, err := dec.(wire.SnapshotBackend).BeginSnapshot("s2")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sessionSurface(dsnap), sessionSurface(snap); got != want {
		t.Errorf("decorated snapshot session exposes %v, inner %v", got, want)
	}
	if !dsnap.(wire.ReadOnlySession).ReadOnly() || dsnap.(doner).Done() {
		t.Error("decorated snapshot session does not forward ReadOnly/Done")
	}
	if err := dsnap.Commit(context.Background()); err != nil || !dsnap.(doner).Done() {
		t.Errorf("decorated snapshot session: commit err %v, done %v", err, dsnap.(doner).Done())
	}
}

// A booking through a decorated backend behaves as through the plain one and
// leaves the spans the analysis expects.
func TestTracedBookingRecordsLinkedSpans(t *testing.T) {
	tr := newTracer(time.Now(), 64)
	tr.on.Store(true)
	m, db := testManager(t, 8)
	backend, err := traceBackend(wire.NewManagerBackend(m), tr)
	if err != nil {
		t.Fatal(err)
	}
	eng := wire.NewEngine(backend, wire.EngineOptions{})
	defer eng.Stop()
	owner := wire.NewOwner("test")
	for _, rq := range bookingRequests("t1") {
		if resp := eng.Serve(rq, owner); !resp.OK {
			t.Fatalf("%s: %s", rq.Op, resp.Err)
		}
	}
	if v, err := readSeat(db, 0); err != nil || v != seatsPerRow-1 {
		t.Fatalf("seat 0 = %d (%v), want %d", v, err, seatsPerRow-1)
	}
	names := make(map[string]int)
	for _, s := range tr.spans() {
		if s.Tx != "t1" {
			t.Errorf("span %s carries tx %q, want t1", s.Name, s.Tx)
		}
		names[s.Name]++
	}
	for _, want := range []string{spBackendBegin, spBackendInvoke, spBackendApply, spBackendCommit} {
		if names[want] != 1 {
			t.Errorf("recorded %d %s spans, want 1 (all: %v)", names[want], want, names)
		}
	}
}

func TestShardDecoratorKeepsTheSurface(t *testing.T) {
	tr := newTracer(time.Now(), 64)
	local := testLocalShards(t)[0]
	dir := t.TempDir()
	primary := filepath.Join(dir, "primary")
	if err := os.MkdirAll(primary, 0o755); err != nil {
		t.Fatal(err)
	}
	refs := map[string]core.StoreRef{seatObject(0): seatRef(0)}
	replica, err := shard.OpenReplicaShard(shard.ReplicaConfig{
		Local: shard.LocalConfig{Dir: primary, Store: "disk", Schemas: seatsSchemas(),
			Seed: func(db *ldbs.DB) error { return seedSeats(db, []int{0}) }, Objects: refs},
		FollowerDir: filepath.Join(dir, followerDirPrefix+"0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	for name, inner := range map[string]shard.Shard{"local": local, "replica": replica} {
		dec, err := traceShard(inner, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := shardSurface(dec), shardSurface(inner); got != want {
			t.Errorf("%s: decorated shard exposes %v (replica-info, promote), inner %v", name, got, want)
		}
		if dec.Index() != inner.Index() {
			t.Errorf("%s: decorated shard reports index %d, inner %d", name, dec.Index(), inner.Index())
		}
	}
}

func TestStoreDecoratorKeepsTheSurface(t *testing.T) {
	tr := newTracer(time.Now(), 64)
	tr.on.Store(true)
	_, db := testManager(t, 4)
	for name, inner := range map[string]core.Store{"ldbs": core.NewLDBSStore(db), "mem": core.NewMemStore()} {
		dec, err := traceStore(inner, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := storeSurface(dec), storeSurface(inner); got != want {
			t.Errorf("%s: decorated store exposes %v (batch, validate), inner %v", name, got, want)
		}
	}
	dec, _ := traceStore(core.NewLDBSStore(db), tr)
	if err := dec.ApplySST([]core.SSTWrite{{Ref: seatRef(1), Value: sem.Int(5)}}); err != nil {
		t.Fatal(err)
	}
	if err := dec.(core.BatchStore).ApplySSTBatch([][]core.SSTWrite{{{Ref: seatRef(2), Value: sem.Int(6)}}}); err != nil {
		t.Fatal(err)
	}
	if err := dec.(core.SSTValidator).ValidateSST([]core.SSTWrite{{Ref: seatRef(3), Value: sem.Int(-1)}}); err == nil {
		t.Error("decorated store let a CHECK violation through validation")
	}
	if v, _ := readSeat(db, 1); v != 5 {
		t.Errorf("seat 1 = %d after a decorated ApplySST, want 5", v)
	}
	if v, _ := readSeat(db, 2); v != 6 {
		t.Errorf("seat 2 = %d after a decorated ApplySSTBatch, want 6", v)
	}
	if n := len(tr.spans()); n != 2 {
		t.Errorf("recorded %d store spans, want 2", n)
	}
}

// The decorated disk driver must pass the storage conformance kit.
func TestTracedDiskDriverPassesTCK(t *testing.T) {
	tr := newTracer(time.Now(), 1<<16)
	tr.on.Store(true)
	driverTracer.Store(tr)
	defer driverTracer.Store(nil)
	open := func(t *testing.T, dir string) store.Driver {
		// The cache floor (8 pages of 2 KiB), so every step also evicts.
		d, err := store.Open(tracedDiskDriver, store.Config{Dir: dir, PageSize: 2048, CacheBytes: 8 * 2048})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	tck.Run(t, tck.Harness{Open: open, Reopen: open})
	if tr.next.Load() == 0 {
		t.Error("the conformance run recorded no driver spans")
	}
}
