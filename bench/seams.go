package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"

	"preserial/internal/core"
	"preserial/internal/ldbs/store"
	"preserial/internal/sem"
	"preserial/internal/shard"
	"preserial/internal/wire"
)

// The seams are decorators on interfaces the program already exposes between
// its layers. Each records a span around the calls that matter to a commit
// and forwards everything else untouched. The program picks code paths by
// asserting optional interfaces on these values, so a decorator must expose
// exactly the optional interfaces of what it wraps — one more or one fewer
// and the traced run would measure a different program. Each constructor
// therefore recognises the shapes the program really builds and refuses
// anything else; seams_test.go checks the equivalence.

// --- wire.Backend seam (under the front end) ---

// tracedBackend wraps a backend that offers no optional surface.
type tracedBackend struct {
	wire.Backend
	tr *tracer
}

func (b *tracedBackend) Begin(tx string) (wire.Session, error) {
	start := b.tr.start()
	sess, err := b.Backend.Begin(tx)
	b.tr.end(spBackendBegin, tx, start)
	if err != nil {
		return nil, err
	}
	return traceSession(sess, tx, b.tr)
}

// tracedManagerBackend wraps the single-manager backend, which also serves
// snapshot reads and decision replay.
type tracedManagerBackend struct {
	tracedBackend
	snap   wire.SnapshotBackend
	replay wire.ReplayBackend
}

func (b *tracedManagerBackend) BeginSnapshot(tx string) (wire.Session, error) {
	sess, err := b.snap.BeginSnapshot(tx)
	if err != nil {
		return nil, err
	}
	return traceSession(sess, tx, b.tr)
}

func (b *tracedManagerBackend) SnapshotRead(object, member string) (wire.Value, error) {
	start := b.tr.start()
	v, err := b.snap.SnapshotRead(object, member)
	b.tr.end(spBackendRead, "", start)
	return v, err
}

func (b *tracedManagerBackend) ReplayDecided(tx string, marker wire.SSTWriteJSON, writes []wire.SSTWriteJSON) (bool, error) {
	return b.replay.ReplayDecided(tx, marker, writes)
}

// tracedClusterBackend wraps the shard cluster, which also answers topology
// and routing queries (the gateway routes lanes by them).
type tracedClusterBackend struct {
	tracedBackend
	topo wire.ShardBackend
}

func (b *tracedClusterBackend) Topology() []wire.ShardStat { return b.topo.Topology() }

func (b *tracedClusterBackend) Route(object string) (int, error) { return b.topo.Route(object) }

// traceBackend decorates a backend, preserving its optional interfaces.
func traceBackend(inner wire.Backend, tr *tracer) (wire.Backend, error) {
	snap, hasSnap := inner.(wire.SnapshotBackend)
	replay, hasReplay := inner.(wire.ReplayBackend)
	topo, hasTopo := inner.(wire.ShardBackend)
	base := tracedBackend{Backend: inner, tr: tr}
	switch {
	case hasSnap && hasReplay && !hasTopo:
		return &tracedManagerBackend{tracedBackend: base, snap: snap, replay: replay}, nil
	case hasTopo && !hasSnap && !hasReplay:
		return &tracedClusterBackend{tracedBackend: base, topo: topo}, nil
	case !hasSnap && !hasReplay && !hasTopo:
		return &base, nil
	}
	return nil, fmt.Errorf("bench: no backend decorator for %T (snapshot=%v replay=%v shard=%v)",
		inner, hasSnap, hasReplay, hasTopo)
}

// tracedSession wraps a plain session (a cluster transaction).
type tracedSession struct {
	inner wire.Session
	tx    string
	tr    *tracer
}

func (s *tracedSession) Invoke(ctx context.Context, obj core.ObjectID, op sem.Op) error {
	start := s.tr.start()
	err := s.inner.Invoke(ctx, obj, op)
	s.tr.end(spBackendInvoke, s.tx, start)
	return err
}

func (s *tracedSession) Read(obj core.ObjectID) (sem.Value, error) { return s.inner.Read(obj) }

func (s *tracedSession) Apply(obj core.ObjectID, operand sem.Value) error {
	start := s.tr.start()
	err := s.inner.Apply(obj, operand)
	s.tr.end(spBackendApply, s.tx, start)
	return err
}

func (s *tracedSession) Commit(ctx context.Context) error {
	start := s.tr.start()
	err := s.inner.Commit(ctx)
	s.tr.end(spBackendCommit, s.tx, start)
	return err
}

func (s *tracedSession) Abort() error { return s.inner.Abort() }

func (s *tracedSession) Sleep() error {
	start := s.tr.start()
	err := s.inner.Sleep()
	s.tr.end(spBackendSleep, s.tx, start)
	return err
}

func (s *tracedSession) Awake() (bool, error) {
	start := s.tr.start()
	resumed, err := s.inner.Awake()
	s.tr.end(spBackendAwake, s.tx, start)
	return resumed, err
}

// tracedTwoPhaseSession wraps a manager session, which can also prepare and
// decide.
type tracedTwoPhaseSession struct {
	tracedSession
	tp wire.TwoPhaseSession
}

func (s *tracedTwoPhaseSession) Prepare(ctx context.Context) ([]wire.SSTWriteJSON, error) {
	return s.tp.Prepare(ctx)
}

func (s *tracedTwoPhaseSession) Decide(ctx context.Context, commit bool, extra []wire.SSTWriteJSON) error {
	return s.tp.Decide(ctx, commit, extra)
}

// doner is the engine's sweep probe for finished snapshot sessions.
type doner interface{ Done() bool }

// tracedSnapshotSession wraps a read-only snapshot session.
type tracedSnapshotSession struct {
	tracedSession
	ro   wire.ReadOnlySession
	done doner
}

func (s *tracedSnapshotSession) ReadOnly() bool { return s.ro.ReadOnly() }
func (s *tracedSnapshotSession) Done() bool     { return s.done.Done() }

// traceSession decorates a session, preserving its optional interfaces.
func traceSession(inner wire.Session, tx string, tr *tracer) (wire.Session, error) {
	tp, hasTP := inner.(wire.TwoPhaseSession)
	ro, hasRO := inner.(wire.ReadOnlySession)
	dn, hasDone := inner.(doner)
	base := tracedSession{inner: inner, tx: tx, tr: tr}
	switch {
	case hasTP && !hasRO && !hasDone:
		return &tracedTwoPhaseSession{tracedSession: base, tp: tp}, nil
	case hasRO && hasDone && !hasTP:
		return &tracedSnapshotSession{tracedSession: base, ro: ro, done: dn}, nil
	case !hasTP && !hasRO && !hasDone:
		return &base, nil
	}
	return nil, fmt.Errorf("bench: no session decorator for %T (two-phase=%v read-only=%v done=%v)",
		inner, hasTP, hasRO, hasDone)
}

// --- shard.Shard seam (under the cluster coordinator) ---

// tracedShard wraps a shard that offers no optional surface (a LocalShard).
type tracedShard struct {
	shard.Shard
	tr *tracer
}

func (s *tracedShard) Begin(tx string) (shard.Session, error) {
	start := s.tr.start()
	sess, err := s.Shard.Begin(tx)
	s.tr.end(spShardBegin, tx, start)
	if err != nil {
		return nil, err
	}
	return &tracedShardSession{inner: sess, tx: tx, tr: s.tr}, nil
}

// promoter is what the cluster's failure detector asserts before a failover.
type promoter interface{ Promote() error }

// tracedReplicaShard wraps a primary/follower pair, which also reports its
// replication state and can be promoted.
type tracedReplicaShard struct {
	tracedShard
	info shard.ReplicaInfoProvider
	prom promoter
}

func (s *tracedReplicaShard) ReplicaInfo() (shard.ReplicaInfo, bool) { return s.info.ReplicaInfo() }
func (s *tracedReplicaShard) Promote() error                         { return s.prom.Promote() }

// traceShard decorates a shard, preserving its optional interfaces.
func traceShard(inner shard.Shard, tr *tracer) (shard.Shard, error) {
	info, hasInfo := inner.(shard.ReplicaInfoProvider)
	prom, hasProm := inner.(promoter)
	base := tracedShard{Shard: inner, tr: tr}
	switch {
	case hasInfo && hasProm:
		return &tracedReplicaShard{tracedShard: base, info: info, prom: prom}, nil
	case !hasInfo && !hasProm:
		return &base, nil
	}
	return nil, fmt.Errorf("bench: no shard decorator for %T (replica-info=%v promote=%v)", inner, hasInfo, hasProm)
}

// tracedShardSession wraps one participant sub-transaction. shard.Session
// has no optional surface: two-phase calls and Release are part of it.
type tracedShardSession struct {
	inner shard.Session
	tx    string
	tr    *tracer
}

func (s *tracedShardSession) Invoke(ctx context.Context, obj core.ObjectID, op sem.Op) error {
	start := s.tr.start()
	err := s.inner.Invoke(ctx, obj, op)
	s.tr.end(spShardInvoke, s.tx, start)
	return err
}

func (s *tracedShardSession) Read(obj core.ObjectID) (sem.Value, error) { return s.inner.Read(obj) }

func (s *tracedShardSession) Apply(obj core.ObjectID, operand sem.Value) error {
	start := s.tr.start()
	err := s.inner.Apply(obj, operand)
	s.tr.end(spShardApply, s.tx, start)
	return err
}

func (s *tracedShardSession) Commit(ctx context.Context) error {
	start := s.tr.start()
	err := s.inner.Commit(ctx)
	s.tr.end(spShardCommit, s.tx, start)
	return err
}

func (s *tracedShardSession) Abort() error         { return s.inner.Abort() }
func (s *tracedShardSession) Sleep() error         { return s.inner.Sleep() }
func (s *tracedShardSession) Awake() (bool, error) { return s.inner.Awake() }
func (s *tracedShardSession) Release()             { s.inner.Release() }

func (s *tracedShardSession) Prepare(ctx context.Context) ([]wire.SSTWriteJSON, error) {
	start := s.tr.start()
	writes, err := s.inner.Prepare(ctx)
	s.tr.end(spShardPrepare, s.tx, start)
	return writes, err
}

func (s *tracedShardSession) Decide(ctx context.Context, commit bool, extra []wire.SSTWriteJSON) error {
	start := s.tr.start()
	err := s.inner.Decide(ctx, commit, extra)
	s.tr.end(spShardDecide, s.tx, start)
	return err
}

// --- core.Store seam (under the Manager, single-node workloads) ---

// tracedStore wraps the store handed to core.NewManager. Both stores the
// program builds (LDBSStore, MemStore) also batch and validate, and the
// Manager asserts both, so the decorator always exposes both.
type tracedStore struct {
	inner core.Store
	batch core.BatchStore
	val   core.SSTValidator
	tr    *tracer
}

func (s *tracedStore) Load(ref core.StoreRef) (sem.Value, error) {
	start := s.tr.start()
	v, err := s.inner.Load(ref)
	s.tr.end(spStoreLoad, "", start)
	return v, err
}

func (s *tracedStore) ApplySST(writes []core.SSTWrite) error {
	start := s.tr.start()
	err := s.inner.ApplySST(writes)
	s.tr.end(spStoreApply, "", start)
	return err
}

func (s *tracedStore) ApplySSTBatch(sets [][]core.SSTWrite) error {
	start := s.tr.start()
	err := s.batch.ApplySSTBatch(sets)
	s.tr.end(spStoreApply, "", start)
	return err
}

func (s *tracedStore) ValidateSST(writes []core.SSTWrite) error { return s.val.ValidateSST(writes) }

// traceStore decorates a core.Store that batches and validates.
func traceStore(inner core.Store, tr *tracer) (core.Store, error) {
	batch, hasBatch := inner.(core.BatchStore)
	val, hasVal := inner.(core.SSTValidator)
	if !hasBatch || !hasVal {
		return nil, fmt.Errorf("bench: no store decorator for %T (batch=%v validate=%v)", inner, hasBatch, hasVal)
	}
	return &tracedStore{inner: inner, batch: batch, val: val, tr: tr}, nil
}

// --- store.Driver seam (under the LDBS engine) ---

// tracedDiskDriver is the name the decorated disk driver is registered under.
// Persistence selects drivers by name, so registration is the only way in.
const tracedDiskDriver = "bench-traced-disk"

// driverTracer is what decorated drivers record into. store.Register takes a
// factory once per process, before any tracer exists, so the factory reads
// the tracer from here; a traced run sets it before it opens its stores.
var driverTracer atomic.Pointer[tracer]

func init() {
	store.Register(tracedDiskDriver, func(cfg store.Config) (store.Driver, error) {
		inner, err := store.Open("disk", cfg)
		if err != nil {
			return nil, err
		}
		follower := strings.HasPrefix(filepath.Base(cfg.Dir), followerDirPrefix)
		return traceDriver(inner, driverTracer.Load(), follower), nil
	})
}

// followerDirPrefix names follower directories, so a decorated driver can
// tell a follower's applies from its primary's.
const followerDirPrefix = "follower-"

// tracedDriver times batch applies, row reads and checkpoints. store.Driver
// has no optional surface.
type tracedDriver struct {
	store.Driver
	tr                 *tracer
	applyName, getName string
}

func traceDriver(inner store.Driver, tr *tracer, follower bool) *tracedDriver {
	d := &tracedDriver{Driver: inner, tr: tr, applyName: spDriverApply, getName: spDriverGet}
	if follower {
		d.applyName, d.getName = spDriverApplyFollower, spDriverGetFollower
	}
	return d
}

func (d *tracedDriver) CreateTable(name string) (store.Table, error) {
	t, err := d.Driver.CreateTable(name)
	if err != nil {
		return nil, err
	}
	return &tracedTable{Table: t, d: d}, nil
}

func (d *tracedDriver) Table(name string) (store.Table, bool) {
	t, ok := d.Driver.Table(name)
	if !ok {
		return nil, false
	}
	return &tracedTable{Table: t, d: d}, true
}

func (d *tracedDriver) Apply(batch []store.Write) error {
	start := d.tr.start()
	err := d.Driver.Apply(batch)
	d.tr.end(d.applyName, "", start)
	return err
}

func (d *tracedDriver) Checkpoint() error {
	start := d.tr.start()
	err := d.Driver.Checkpoint()
	d.tr.end(spDriverCheckpoint, "", start)
	return err
}

// tracedTable times point reads; writes outside Apply and scans pass through.
type tracedTable struct {
	store.Table
	d *tracedDriver
}

func (t *tracedTable) Get(key string) (store.Row, bool, error) {
	start := t.d.tr.start()
	row, ok, err := t.Table.Get(key)
	t.d.tr.end(t.d.getName, "", start)
	return row, ok, err
}
