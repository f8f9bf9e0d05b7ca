package shard

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/sem"
)

var _ Shard = (*ReplicaShard)(nil)
var _ ReplicaInfoProvider = (*ReplicaShard)(nil)
var _ promoter = (*ReplicaShard)(nil)

// replicaCluster is an n-shard cluster of primary/follower pairs.
type replicaCluster struct {
	cl     *Cluster
	shards []*ReplicaShard
	keys   [][]string
}

func newReplicaCluster(t testing.TB, n, per int, seats int64, withLog bool) *replicaCluster {
	t.Helper()
	keys := keysOnShards(t, n, per)
	shards := make([]Shard, n)
	pairs := make([]*ReplicaShard, n)
	for i := 0; i < n; i++ {
		objs := make(map[string]core.StoreRef, per)
		for _, key := range keys[i] {
			objs[objectID(key)] = core.StoreRef{Table: "Seats", Key: key, Column: "Free"}
		}
		s, err := OpenReplicaShard(ReplicaConfig{
			Local: LocalConfig{
				Index:   i,
				Dir:     t.TempDir(),
				Schemas: []ldbs.Schema{seatSchema()},
				Seed:    seatSeeder(keys[i], seats),
				Objects: objs,
			},
			FollowerDir: t.TempDir(),
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		pairs[i] = s
		shards[i] = s
	}
	cfg := Config{Shards: shards}
	if withLog {
		cfg.CoordLogPath = filepath.Join(t.TempDir(), "coord.wal")
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	rc := &replicaCluster{cl: cl, shards: pairs, keys: keys}
	rc.waitFollowers(t)
	return rc
}

// waitFollowers blocks until every pair's follower is attached, so that
// semi-sync commits actually wait for replication (the guarantee the
// failover tests rely on).
func (rc *replicaCluster) waitFollowers(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range rc.shards {
		for {
			info, _ := s.ReplicaInfo()
			if info.Followers > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: follower never attached", s.Index())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func (rc *replicaCluster) free(t testing.TB, key string) int64 {
	t.Helper()
	idx := rc.cl.ring.Route(objectID(key))
	db := rc.shards[idx].DB()
	if db == nil {
		t.Fatalf("shard %d is down", idx)
	}
	v, err := db.ReadCommitted("Seats", key, "Free")
	if err != nil {
		t.Fatalf("read %s on shard %d: %v", key, idx, err)
	}
	return v.Int64()
}

// TestReplicaShardFailoverReconstructsSleeper: a transaction sleeps, the
// primary dies, the follower is promoted — and the sleeper is awake-able on
// the promoted stack and commits its journaled tentative work.
func TestReplicaShardFailoverReconstructsSleeper(t *testing.T) {
	rc := newReplicaCluster(t, 1, 2, 10, true)
	ctx := context.Background()
	key := rc.keys[0][0]
	obj := core.ObjectID(objectID(key))

	sess, err := rc.cl.Begin("sleeper")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Apply(obj, sem.Int(-3)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Sleep(); err != nil {
		t.Fatal(err)
	}

	// Crash the primary; promote the follower at its acked LSN.
	rc.shards[0].Kill()
	if err := rc.shards[0].Promote(); err != nil {
		t.Fatal(err)
	}
	if info, _ := rc.shards[0].ReplicaInfo(); info.Role != RolePromoted {
		t.Fatalf("role = %q after promotion", info.Role)
	}

	// The reconstructed sleeper is visible and resumable.
	st, err := rc.shards[0].TxState("sleeper")
	if err != nil || st != core.StateSleeping {
		t.Fatalf("TxState after promotion = %v, %v; want Sleeping", st, err)
	}
	resumed, err := sess.Awake()
	if err != nil || !resumed {
		t.Fatalf("Awake after promotion = %v, %v; want resumed", resumed, err)
	}
	if err := sess.Commit(ctx); err != nil {
		t.Fatalf("commit after promotion: %v", err)
	}
	if got := rc.free(t, key); got != 7 {
		t.Fatalf("Free = %d after resumed commit, want 7", got)
	}
	// The journal row is gone once the transaction settled.
	db := rc.shards[0].DB()
	if _, err := db.ReadCommitted(SleepTable, "sleeper", SleepColumn); err == nil {
		t.Fatal("sleep journal row survived the commit")
	}
}

// TestReplicaShardFailureDetectorPromotes: the cluster's heartbeat loop
// notices a dead primary and fails it over without operator involvement.
func TestReplicaShardFailureDetectorPromotes(t *testing.T) {
	rc := newReplicaCluster(t, 2, 2, 10, true)
	stop := rc.cl.StartFailureDetector(FailoverConfig{
		Interval: 10 * time.Millisecond,
		Misses:   2,
		Promote:  true,
	})
	defer stop()

	rc.shards[1].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, _ := rc.shards[1].ReplicaInfo()
		if info.Role == RolePromoted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failure detector never promoted the follower")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The promoted shard serves reads and writes again.
	key := rc.keys[1][0]
	ctx := context.Background()
	sess, err := rc.cl.Begin("after-failover")
	if err != nil {
		t.Fatal(err)
	}
	obj := core.ObjectID(objectID(key))
	if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Apply(obj, sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rc.free(t, key); got != 9 {
		t.Fatalf("Free = %d after failover commit, want 9", got)
	}
	// Topology reflects the failover.
	top := rc.cl.Topology()
	if top[1].Role != RolePromoted || top[1].Promotions != 1 {
		t.Fatalf("topology after failover: role=%q promotions=%d", top[1].Role, top[1].Promotions)
	}
}

// TestReplicaShardInDoubt2PCResolvesThroughFailover: the coordinator logs a
// cross-shard commit decision, one participant dies before applying it, the
// follower is promoted — and in-doubt resolution replays the logged write
// set onto the promoted stack exactly once.
func TestReplicaShardInDoubt2PCResolvesThroughFailover(t *testing.T) {
	rc := newReplicaCluster(t, 2, 2, 10, true)
	k0, k1 := rc.keys[0][0], rc.keys[1][0]

	rc.cl.HookAfterLog = func(tx string) { rc.shards[0].Kill() }
	ctx := context.Background()
	sess, err := rc.cl.Begin("cross")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{k0, k1} {
		obj := core.ObjectID(objectID(key))
		if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Apply(obj, sem.Int(-2)); err != nil {
			t.Fatal(err)
		}
	}
	// The decision is logged, so the commit stands even though shard 0
	// dies before applying its slice.
	if err := sess.Commit(ctx); err != nil {
		t.Fatalf("cross-shard commit: %v", err)
	}
	if got := len(rc.cl.InDoubt()); got != 1 {
		t.Fatalf("in-doubt = %d after participant death, want 1", got)
	}

	if err := rc.shards[0].Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.cl.ResolveInDoubt(); err != nil {
		t.Fatalf("ResolveInDoubt: %v", err)
	}
	if got := len(rc.cl.InDoubt()); got != 0 {
		t.Fatalf("in-doubt = %d after resolution, want 0", got)
	}
	if got := rc.free(t, k0); got != 8 {
		t.Fatalf("Free(%s) = %d on promoted shard, want 8", k0, got)
	}
	if got := rc.free(t, k1); got != 8 {
		t.Fatalf("Free(%s) = %d, want 8", k1, got)
	}
	// Resolution must be exactly-once: a second pass replays nothing.
	if _, err := rc.cl.ResolveInDoubt(); err != nil {
		t.Fatal(err)
	}
	if got := rc.free(t, k0); got != 8 {
		t.Fatalf("Free(%s) = %d after second resolve — double apply", k0, got)
	}
	// The decision marker rode the replay onto the promoted follower.
	v, err := rc.shards[0].DB().ReadCommitted(MarkerTable, "cross", MarkerColumn)
	if err != nil || v.IsNull() {
		t.Fatalf("no decision marker for cross on promoted shard: %v", err)
	}
}

// TestReplicaShardRestartReconstructsSleeper: the sleep journal also
// protects a plain restart of the primary — no failover needed.
func TestReplicaShardRestartReconstructsSleeper(t *testing.T) {
	rc := newReplicaCluster(t, 1, 2, 10, false)
	ctx := context.Background()
	key := rc.keys[0][0]
	obj := core.ObjectID(objectID(key))

	sess, err := rc.cl.Begin("napper")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Apply(obj, sem.Int(-4)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Sleep(); err != nil {
		t.Fatal(err)
	}

	rc.shards[0].Kill()
	if err := rc.shards[0].Restart(); err != nil {
		t.Fatal(err)
	}
	if st, err := rc.shards[0].TxState("napper"); err != nil || st != core.StateSleeping {
		t.Fatalf("TxState after restart = %v, %v; want Sleeping", st, err)
	}
	resumed, err := sess.Awake()
	if err != nil || !resumed {
		t.Fatalf("Awake after restart = %v, %v", resumed, err)
	}
	if err := sess.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rc.free(t, key); got != 6 {
		t.Fatalf("Free = %d, want 6", got)
	}
}

// TestReplicaShardCommitBeginsOneLDBSTx: committing a transaction that
// never slept costs one LDBS transaction — its SST — and no sleep-journal
// probe.
func TestReplicaShardCommitBeginsOneLDBSTx(t *testing.T) {
	rc := newReplicaCluster(t, 1, 1, 10, false)
	ctx := context.Background()
	obj := core.ObjectID(objectID(rc.keys[0][0]))
	s := rc.shards[0]

	sess, err := s.Begin("awake-all-along")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Apply(obj, sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	before := s.DB().Stats().Begun
	if err := sess.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.DB().Stats().Begun - before; got != 1 {
		t.Fatalf("commit began %d LDBS transactions, want 1", got)
	}
}
