package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// --- test fixture ---

// seatSchema is the demo table every test shard serves.
func seatSchema() ldbs.Schema {
	return ldbs.Schema{
		Table:   "Seats",
		Columns: []ldbs.ColumnDef{{Name: "Free", Kind: sem.KindInt64}},
		Checks:  []ldbs.Check{{Column: "Free", Op: ldbs.CmpGE, Bound: sem.Int(0)}},
	}
}

// objectID names the GTM object for seat row key — the "Table/Key"
// convention RouteRef relies on.
func objectID(key string) string { return "Seats/" + key }

// keysOnShards returns `per` row keys routed to each shard of an n-shard
// ring, grouped by shard index.
func keysOnShards(t testing.TB, n, per int) [][]string {
	t.Helper()
	ring := NewRing(n)
	out := make([][]string, n)
	for i := 0; short(out, per); i++ {
		key := fmt.Sprintf("S%d", i)
		idx := ring.Route(objectID(key))
		if len(out[idx]) < per {
			out[idx] = append(out[idx], key)
		}
		if i > 10000 {
			t.Fatal("ring never filled every shard — hashing broken")
		}
	}
	return out
}

func short(groups [][]string, per int) bool {
	for _, g := range groups {
		if len(g) < per {
			return true
		}
	}
	return false
}

// seatSeeder idempotently inserts `keys` at `seats` each.
func seatSeeder(keys []string, seats int64) func(db *ldbs.DB) error {
	return func(db *ldbs.DB) error {
		ctx := context.Background()
		tx := db.Begin()
		for _, key := range keys {
			if _, err := db.ReadCommitted("Seats", key, "Free"); err == nil {
				continue // survived recovery
			}
			if err := tx.Insert(ctx, "Seats", key, ldbs.Row{"Free": sem.Int(seats)}); err != nil {
				tx.Rollback()
				return err
			}
		}
		return tx.Commit(ctx)
	}
}

// testCluster is an n-shard in-process cluster over tmp dirs.
type testCluster struct {
	cl     *Cluster
	shards []*LocalShard
	keys   [][]string // row keys per shard
}

// newTestCluster builds n durable shards with `per` seat objects each at
// `seats`, plus a coordinator log when withLog is set.
func newTestCluster(t testing.TB, n, per int, seats int64, withLog bool) *testCluster {
	t.Helper()
	keys := keysOnShards(t, n, per)
	shards := make([]Shard, n)
	locals := make([]*LocalShard, n)
	for i := 0; i < n; i++ {
		objs := make(map[string]core.StoreRef, per)
		for _, key := range keys[i] {
			objs[objectID(key)] = core.StoreRef{Table: "Seats", Key: key, Column: "Free"}
		}
		s, err := OpenLocal(LocalConfig{
			Index:   i,
			Dir:     t.TempDir(),
			Schemas: []ldbs.Schema{seatSchema()},
			Seed:    seatSeeder(keys[i], seats),
			Objects: objs,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		locals[i] = s
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
	return &testCluster{cl: cl, shards: locals, keys: keys}
}

// free reads a seat row's committed value from its owning shard.
func (tc *testCluster) free(t testing.TB, key string) int64 {
	t.Helper()
	idx := tc.cl.ring.Route(objectID(key))
	v, err := tc.shards[idx].DB().ReadCommitted("Seats", key, "Free")
	if err != nil {
		t.Fatalf("read %s on shard %d: %v", key, idx, err)
	}
	return v.Int64()
}

// marker reports whether a decision marker row exists for tx on shard idx.
func (tc *testCluster) marker(t testing.TB, idx int, tx string) bool {
	t.Helper()
	v, err := tc.shards[idx].DB().ReadCommitted(MarkerTable, tx, MarkerColumn)
	return err == nil && !v.IsNull()
}

// book runs one add/sub transaction applying delta to each key, committing
// through the cluster.
func (tc *testCluster) book(t testing.TB, tx string, delta int64, keys ...string) error {
	t.Helper()
	ctx := context.Background()
	sess, err := tc.cl.Begin(tx)
	if err != nil {
		return err
	}
	for _, key := range keys {
		obj := core.ObjectID(objectID(key))
		if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
			return err
		}
		if err := sess.Apply(obj, sem.Int(delta)); err != nil {
			return err
		}
	}
	return sess.Commit(ctx)
}

// --- routing ---

func TestRingDeterministicAndCovering(t *testing.T) {
	ring := NewRing(4)
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		obj := fmt.Sprintf("Seats/S%d", i)
		idx := ring.Route(obj)
		if again := ring.Route(obj); again != idx {
			t.Fatalf("Route(%q) = %d then %d — not deterministic", obj, idx, again)
		}
		if ref := ring.RouteRef(core.StoreRef{Table: "Seats", Key: fmt.Sprintf("S%d", i)}); ref != idx {
			t.Fatalf("RouteRef disagrees with Route for %q: %d vs %d", obj, ref, idx)
		}
		counts[idx]++
	}
	for i, n := range counts {
		// A uniform hash puts ~250 of 1000 on each of 4 shards; anything
		// below 100 means the placement is badly skewed.
		if n < 100 {
			t.Fatalf("shard %d got only %d/1000 objects: %v", i, n, counts)
		}
	}
}

func TestRingStability(t *testing.T) {
	// Growing the ring must not move objects between the surviving shards:
	// an object either stays put or moves to the new shard.
	small, big := NewRing(3), NewRing(4)
	moved := 0
	for i := 0; i < 1000; i++ {
		obj := fmt.Sprintf("Seats/S%d", i)
		was, now := small.Route(obj), big.Route(obj)
		if was != now {
			if now != 3 {
				t.Fatalf("%q moved %d→%d, not to the new shard", obj, was, now)
			}
			moved++
		}
	}
	if moved == 0 || moved > 500 {
		t.Fatalf("adding a shard moved %d/1000 objects, want roughly 1/4", moved)
	}
}

// --- commit paths ---

func TestSingleShardFastPath(t *testing.T) {
	tc := newTestCluster(t, 2, 2, 50, false)
	key := tc.keys[0][0]
	if err := tc.book(t, "t1", -3, key); err != nil {
		t.Fatal(err)
	}
	if got := tc.free(t, key); got != 47 {
		t.Fatalf("free = %d, want 47", got)
	}
	st := tc.cl.Stats()
	if st["cluster_single_commits"] != 1 || st["cluster_cross_commits"] != 0 {
		t.Fatalf("stats = single %d cross %d, want 1/0",
			st["cluster_single_commits"], st["cluster_cross_commits"])
	}
	if got, err := tc.cl.TxState("t1"); err != nil || got != core.StateCommitted {
		t.Fatalf("TxState = %v, %v", got, err)
	}
	// No marker on the fast path — the shard's own pipeline committed.
	if tc.marker(t, 0, "t1") {
		t.Fatal("single-shard commit must not write a decision marker")
	}
}

func TestCrossShardCommit(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 50, true)
	a, b := tc.keys[0][0], tc.keys[1][0]
	if err := tc.book(t, "x1", -1, a, b); err != nil {
		t.Fatal(err)
	}
	if got := tc.free(t, a); got != 49 {
		t.Fatalf("%s = %d, want 49", a, got)
	}
	if got := tc.free(t, b); got != 49 {
		t.Fatalf("%s = %d, want 49", b, got)
	}
	// Both participants carry the decision marker, and the decision was
	// acknowledged done (nothing in doubt).
	if !tc.marker(t, 0, "x1") || !tc.marker(t, 1, "x1") {
		t.Fatal("decided SSTs must carry the decision marker on both shards")
	}
	if pending := tc.cl.InDoubt(); len(pending) != 0 {
		t.Fatalf("in-doubt after clean commit: %v", pending)
	}
	st := tc.cl.Stats()
	if st["cluster_cross_commits"] != 1 {
		t.Fatalf("cross commits = %d, want 1", st["cluster_cross_commits"])
	}
	if got, err := tc.cl.TxState("x1"); err != nil || got != core.StateCommitted {
		t.Fatalf("TxState = %v, %v", got, err)
	}
}

func TestCrossShardConstraintAbort(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 5, true)
	a, b := tc.keys[0][0], tc.keys[1][0]
	// Overdraw the shard-1 object: its prepare-time validation must refuse,
	// and the whole transaction — including the healthy shard-0 leg — must
	// abort.
	if err := tc.book(t, "x1", -10, a, b); err == nil {
		t.Fatal("overdraw committed, want constraint abort")
	}
	if got := tc.free(t, a); got != 5 {
		t.Fatalf("%s = %d after abort, want 5", a, got)
	}
	if got := tc.free(t, b); got != 5 {
		t.Fatalf("%s = %d after abort, want 5", b, got)
	}
	if got, err := tc.cl.TxState("x1"); err != nil || got != core.StateAborted {
		t.Fatalf("TxState = %v, %v, want Aborted", got, err)
	}
	if pending := tc.cl.InDoubt(); len(pending) != 0 {
		t.Fatalf("aborted prepare left decisions in doubt: %v", pending)
	}
}

func TestClientAbortFansOut(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 50, false)
	a, b := tc.keys[0][0], tc.keys[1][0]
	ctx := context.Background()
	sess, err := tc.cl.Begin("x1")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{a, b} {
		obj := core.ObjectID(objectID(key))
		if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Apply(obj, sem.Int(-1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Abort(); err != nil {
		t.Fatal(err)
	}
	for i, sh := range tc.shards {
		st, err := sh.TxState("x1")
		if err != nil || st != core.StateAborted {
			t.Fatalf("shard %d state = %v, %v, want Aborted", i, st, err)
		}
	}
	if got := tc.free(t, a); got != 50 {
		t.Fatalf("%s = %d after abort, want 50", a, got)
	}
}

// --- satellite: reconciliation merges are placement-independent ---

// runMergeScenario runs two concurrent transactions of class `class`, each
// touching both objects with its own operand, against an n-shard cluster,
// and returns the final committed values of the two objects.
func runMergeScenario(t *testing.T, n int, class sem.Class, initial int64, opA, opB int64) (int64, int64) {
	t.Helper()
	tc := newTestCluster(t, n, ringSpread(n), initial, false)
	// Two objects — same shard when n == 1, different shards when n == 2
	// (keysOnShards guarantees per-shard coverage).
	var x, y string
	if n == 1 {
		x, y = tc.keys[0][0], tc.keys[0][1]
	} else {
		x, y = tc.keys[0][0], tc.keys[1][0]
	}
	ctx := context.Background()
	sessA, err := tc.cl.Begin("A")
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := tc.cl.Begin("B")
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: both transactions hold both objects concurrently (the
	// classes are self-compatible), then commit A before B — the Eq.1/Eq.2
	// reconciliation merges B's virtual values with A's committed ones.
	for _, key := range []string{x, y} {
		obj := core.ObjectID(objectID(key))
		if err := sessA.Invoke(ctx, obj, sem.Op{Class: class}); err != nil {
			t.Fatal(err)
		}
		if err := sessB.Invoke(ctx, obj, sem.Op{Class: class}); err != nil {
			t.Fatal(err)
		}
		if err := sessA.Apply(obj, sem.Int(opA)); err != nil {
			t.Fatal(err)
		}
		if err := sessB.Apply(obj, sem.Int(opB)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sessA.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sessB.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	return tc.free(t, x), tc.free(t, y)
}

// ringSpread returns how many keys per shard the scenario needs: two
// objects on one shard (n == 1) or one each on two shards.
func ringSpread(n int) int {
	if n == 1 {
		return 2
	}
	return 1
}

func TestMergeFinalsPlacementIndependentAddSub(t *testing.T) {
	// Eq. 1: finals are initial + ΔA + ΔB regardless of interleaving —
	// and regardless of whether the two objects share a shard.
	x1, y1 := runMergeScenario(t, 1, sem.AddSub, 100, -7, -11)
	x2, y2 := runMergeScenario(t, 2, sem.AddSub, 100, -7, -11)
	want := int64(100 - 7 - 11)
	if x1 != want || y1 != want {
		t.Fatalf("one-shard finals = %d, %d, want %d", x1, y1, want)
	}
	if x2 != x1 || y2 != y1 {
		t.Fatalf("two-shard finals %d, %d differ from one-shard %d, %d", x2, y2, x1, y1)
	}
}

func TestMergeFinalsPlacementIndependentMulDiv(t *testing.T) {
	// Eq. 2: finals are initial · fA · fB on one shard and on two.
	x1, y1 := runMergeScenario(t, 1, sem.MulDiv, 100, 2, 3)
	x2, y2 := runMergeScenario(t, 2, sem.MulDiv, 100, 2, 3)
	want := int64(100 * 2 * 3)
	if x1 != want || y1 != want {
		t.Fatalf("one-shard finals = %d, %d, want %d", x1, y1, want)
	}
	if x2 != x1 || y2 != y1 {
		t.Fatalf("two-shard finals %d, %d differ from one-shard %d, %d", x2, y2, x1, y1)
	}
}

// --- phase 2 ---

// phase2Shard wraps a participant so a test steps in before each of its
// sessions' Decide calls: hook runs first, and an error from it replaces
// the real Decide (the participant stays prepared).
type phase2Shard struct {
	Shard
	hook func(idx int) error
}

func (s phase2Shard) Begin(tx string) (Session, error) {
	sess, err := s.Shard.Begin(tx)
	if err != nil {
		return nil, err
	}
	return phase2Session{Session: sess, idx: s.Index(), hook: s.hook}, nil
}

type phase2Session struct {
	Session
	idx  int
	hook func(idx int) error
}

func (s phase2Session) Decide(ctx context.Context, commit bool, extra []wire.SSTWriteJSON) error {
	if err := s.hook(s.idx); err != nil {
		return err
	}
	return s.Session.Decide(ctx, commit, extra)
}

// hookPhase2 replaces tc's coordinator with one whose participants run
// hook before every session Decide, reporting its metrics into reg.
func hookPhase2(t *testing.T, tc *testCluster, reg *obs.Registry, hook func(idx int) error) {
	t.Helper()
	shards := make([]Shard, len(tc.shards))
	for i, s := range tc.shards {
		shards[i] = phase2Shard{Shard: s, hook: hook}
	}
	cl, err := NewCluster(Config{Shards: shards,
		CoordLogPath: filepath.Join(t.TempDir(), "coord.wal"), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	tc.cl = cl
}

// TestClusterDecidesInParallel: every participant's Decide is in flight
// at once — each one blocks until all of them have entered, which a serial
// phase 2 never reaches.
func TestClusterDecidesInParallel(t *testing.T) {
	const n = 3
	tc := newTestCluster(t, n, 1, 50, false)
	var entered atomic.Int32
	all := make(chan struct{})
	hookPhase2(t, tc, nil, func(idx int) error {
		if entered.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
			return nil
		case <-time.After(2 * time.Second):
			t.Errorf("decide on shard %d waited 2s for the other participants: phase 2 is serial", idx)
			return fmt.Errorf("shard %d decided alone", idx)
		}
	})
	keys := []string{tc.keys[0][0], tc.keys[1][0], tc.keys[2][0]}
	if err := tc.book(t, "par", -1, keys...); err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if got := tc.free(t, key); got != 49 {
			t.Fatalf("%s = %d, want 49", key, got)
		}
	}
	if pending := tc.cl.InDoubt(); len(pending) != 0 {
		t.Fatalf("in-doubt after a clean parallel phase 2: %v", pending)
	}
}

// TestClusterDecideFailureLeavesInDoubt: one participant's decide fails
// after the decision is logged. The commit still succeeds, the other
// participant commits, and the failed one waits in doubt for resolution.
func TestClusterDecideFailureLeavesInDoubt(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 50, false)
	reg := obs.NewRegistry()
	hookPhase2(t, tc, reg, func(idx int) error {
		if idx == 1 {
			return errors.New("injected decide failure")
		}
		return nil
	})
	a, b := tc.keys[0][0], tc.keys[1][0]
	if err := tc.book(t, "lag", -1, a, b); err != nil {
		t.Fatalf("commit past the logged decision must succeed: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap[obs.NameShard2PCDecideFails]; got != 1 {
		t.Fatalf("%s = %d, want 1", obs.NameShard2PCDecideFails, got)
	}
	for idx, want := range []uint64{1, 0} {
		name := obs.WithLabel(obs.NameShardCommits, "shard", strconv.Itoa(idx))
		if got := snap[name]; got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if got := tc.free(t, a); got != 49 {
		t.Fatalf("%s = %d, want 49", a, got)
	}
	if pending := tc.cl.InDoubt(); len(pending) != 1 || pending[0] != "lag" {
		t.Fatalf("in-doubt = %v, want [lag]", pending)
	}
	// The lagging participant still holds the transaction prepared:
	// resolution delivers the logged decision.
	if resolved, err := tc.cl.ResolveInDoubt(); err != nil || resolved != 1 {
		t.Fatalf("ResolveInDoubt = %d, %v, want 1, nil", resolved, err)
	}
	if got := tc.free(t, b); got != 49 {
		t.Fatalf("%s = %d, want 49", b, got)
	}
}

// --- crash recovery ---

func TestParticipantKillMid2PC(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 50, true)
	a, b := tc.keys[0][0], tc.keys[1][0]
	// Kill shard 1 after the decision is logged but before any participant
	// is told to commit: the transaction IS committed (the log says so),
	// shard 1 just doesn't know yet.
	tc.cl.HookAfterLog = func(string) { tc.shards[1].Kill() }
	if err := tc.book(t, "x1", -1, a, b); err != nil {
		t.Fatalf("commit after decision log must succeed: %v", err)
	}
	tc.cl.HookAfterLog = nil
	if got := tc.free(t, a); got != 49 {
		t.Fatalf("surviving shard: %s = %d, want 49", a, got)
	}
	if pending := tc.cl.InDoubt(); len(pending) != 1 {
		t.Fatalf("in-doubt = %v, want [x1]", pending)
	}
	if got, err := tc.cl.TxState("x1"); err != nil || got != core.StateCommitted {
		t.Fatalf("TxState = %v, %v, want Committed (decision is logged)", got, err)
	}

	// Restart the shard (its prepared state is gone — only the WAL
	// survived) and resolve: the write set replays from the coordinator
	// log, idempotently.
	if err := tc.shards[1].Restart(); err != nil {
		t.Fatal(err)
	}
	resolved, err := tc.cl.ResolveInDoubt()
	if err != nil || resolved != 1 {
		t.Fatalf("ResolveInDoubt = %d, %v, want 1, nil", resolved, err)
	}
	if got := tc.free(t, b); got != 49 {
		t.Fatalf("restarted shard: %s = %d, want 49", b, got)
	}
	if !tc.marker(t, 1, "x1") {
		t.Fatal("replay must land the decision marker")
	}
	if pending := tc.cl.InDoubt(); len(pending) != 0 {
		t.Fatalf("still in doubt after resolve: %v", pending)
	}
	// Resolving again is a no-op.
	if resolved, err := tc.cl.ResolveInDoubt(); err != nil || resolved != 0 {
		t.Fatalf("second resolve = %d, %v, want 0, nil", resolved, err)
	}
}

func TestCoordinatorRestartRecoversDecisions(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 50, true)
	a, b := tc.keys[0][0], tc.keys[1][0]
	logPath := tc.cl.log.path
	// Both shards die right after the decision hits the log: phase 2
	// reaches no one.
	tc.cl.HookAfterLog = func(string) {
		tc.shards[0].Kill()
		tc.shards[1].Kill()
	}
	if err := tc.book(t, "x1", -1, a, b); err != nil {
		t.Fatalf("commit after decision log must succeed: %v", err)
	}
	// The coordinator dies too. A new one recovers from the same log over
	// the restarted shards.
	tc.cl.Close()
	for i, s := range tc.shards {
		if err := s.Restart(); err != nil {
			t.Fatalf("restart shard %d: %v", i, err)
		}
	}
	cl2, err := NewCluster(Config{
		Shards:       []Shard{tc.shards[0], tc.shards[1]},
		CoordLogPath: logPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if pending := cl2.InDoubt(); len(pending) != 1 || pending[0] != "x1" {
		t.Fatalf("recovered in-doubt = %v, want [x1]", pending)
	}
	// The logged decision is a commitment even before resolution.
	if got, err := cl2.TxState("x1"); err != nil || got != core.StateCommitted {
		t.Fatalf("TxState = %v, %v, want Committed", got, err)
	}
	if resolved, err := cl2.ResolveInDoubt(); err != nil || resolved != 1 {
		t.Fatalf("ResolveInDoubt = %d, %v, want 1, nil", resolved, err)
	}
	if got := tc.free(t, a); got != 49 {
		t.Fatalf("%s = %d, want 49", a, got)
	}
	if got := tc.free(t, b); got != 49 {
		t.Fatalf("%s = %d, want 49", b, got)
	}
	// A third open of the log sees nothing pending (done was logged and
	// the reopen compacted).
	cl3, err := NewCluster(Config{
		Shards:       []Shard{tc.shards[0], tc.shards[1]},
		CoordLogPath: logPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl3.Close()
	if pending := cl3.InDoubt(); len(pending) != 0 {
		t.Fatalf("decisions survived resolution: %v", pending)
	}
}

func TestPrepareFailureWhenShardDown(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 50, true)
	a, b := tc.keys[0][0], tc.keys[1][0]
	tc.shards[1].Kill()
	if err := tc.book(t, "x1", -1, a, b); err == nil {
		t.Fatal("commit with a dead participant must fail")
	}
	if err := tc.shards[1].Restart(); err != nil {
		t.Fatal(err)
	}
	if got := tc.free(t, a); got != 50 {
		t.Fatalf("%s = %d after failed commit, want 50", a, got)
	}
	if got := tc.free(t, b); got != 50 {
		t.Fatalf("%s = %d after failed commit, want 50", b, got)
	}
	if pending := tc.cl.InDoubt(); len(pending) != 0 {
		t.Fatalf("no decision was logged, yet in-doubt = %v", pending)
	}
}

// --- topology & introspection ---

func TestTopologyAndRoute(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 50, false)
	top := tc.cl.Topology()
	if len(top) != 3 {
		t.Fatalf("topology has %d shards, want 3", len(top))
	}
	for i, st := range top {
		if st.Index != i || st.Down || st.Objects != 2 {
			t.Fatalf("shard %d stat = %+v, want index %d, up, 2 objects", i, st, i)
		}
	}
	obj := objectID(tc.keys[1][0])
	idx, err := tc.cl.Route(obj)
	if err != nil || idx != 1 {
		t.Fatalf("Route(%q) = %d, %v, want 1", obj, idx, err)
	}
	tc.shards[2].Kill()
	top = tc.cl.Topology()
	if !top[2].Down {
		t.Fatal("killed shard not reported down")
	}
}

func TestClusterOverWire(t *testing.T) {
	// The full routing layer: a wire server fronting the cluster, an
	// unmodified client committing a cross-shard transaction, and the
	// shards op reporting topology.
	tc := newTestCluster(t, 2, 1, 50, true)
	srv := wire.NewBackendServer(tc.cl, wire.ServerOptions{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve("127.0.0.1:0") }()
	select {
	case <-srv.Ready():
	case err := <-done:
		t.Fatalf("server never bound: %v", err)
	}
	defer srv.Close()

	cn, err := wire.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	a, b := tc.keys[0][0], tc.keys[1][0]
	if err := cn.Begin("w1"); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{a, b} {
		if err := cn.Invoke("w1", objectID(key), sem.AddSub, ""); err != nil {
			t.Fatal(err)
		}
		if err := cn.Apply("w1", objectID(key), sem.Int(-2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cn.Commit("w1"); err != nil {
		t.Fatal(err)
	}
	if got := tc.free(t, a); got != 48 {
		t.Fatalf("%s = %d, want 48", a, got)
	}
	if got := tc.free(t, b); got != 48 {
		t.Fatalf("%s = %d, want 48", b, got)
	}
	if st, err := cn.State("w1"); err != nil || st != "Committed" {
		t.Fatalf("state over wire = %q, %v", st, err)
	}
	stats, _, err := cn.Shards(objectID(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("shards op returned %d shards, want 2", len(stats))
	}
	_, route, err := cn.Shards(objectID(b))
	if err != nil || route == nil || *route != 1 {
		t.Fatalf("route of %q = %v, %v, want 1", objectID(b), route, err)
	}
}

func TestRemoteShardsCluster(t *testing.T) {
	// Multi-process topology, in one process: two participant servers each
	// fronting their own GTM+LDBS, a cluster of RemoteShards routing to
	// them over real TCP.
	keys := keysOnShards(t, 2, 1)
	addrs := make([]string, 2)
	dbs := make([]*ldbs.DB, 2)
	for i := 0; i < 2; i++ {
		objs := make(map[string]core.StoreRef)
		for _, key := range keys[i] {
			objs[objectID(key)] = core.StoreRef{Table: "Seats", Key: key, Column: "Free"}
		}
		local, err := OpenLocal(LocalConfig{
			Index:   i,
			Schemas: []ldbs.Schema{seatSchema()},
			Seed:    seatSeeder(keys[i], 50),
			Objects: objs,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(local.Close)
		dbs[i] = local.DB()
		srv := wire.NewServer(local.Manager(), wire.ServerOptions{})
		done := make(chan error, 1)
		go func() { done <- srv.Serve("127.0.0.1:0") }()
		select {
		case <-srv.Ready():
		case err := <-done:
			t.Fatalf("participant %d never bound: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr().String()
	}
	remotes := []Shard{NewRemoteShard(0, addrs[0]), NewRemoteShard(1, addrs[1])}
	cl, err := NewCluster(Config{
		Shards:       remotes,
		CoordLogPath: filepath.Join(t.TempDir(), "coord.wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	sess, err := cl.Begin("r1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		obj := core.ObjectID(objectID(keys[i][0]))
		if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Apply(obj, sem.Int(-5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		v, err := dbs[i].ReadCommitted("Seats", keys[i][0], "Free")
		if err != nil || v.Int64() != 45 {
			t.Fatalf("participant %d: free = %v, %v, want 45", i, v, err)
		}
		mv, err := dbs[i].ReadCommitted(MarkerTable, "r1", MarkerColumn)
		if err != nil || mv.IsNull() {
			t.Fatalf("participant %d: no decision marker: %v", i, err)
		}
	}
	top := cl.Topology()
	if len(top) != 2 || top[0].Addr != addrs[0] || top[0].Down {
		t.Fatalf("topology = %+v", top)
	}
	if pending := cl.InDoubt(); len(pending) != 0 {
		t.Fatalf("in-doubt after clean remote commit: %v", pending)
	}
}

// --- benchmarks (CI bench-smoke runs these with -benchtime=1x) ---

// benchCluster measures single-object bookings spread over the whole
// object space, the gtmload-shaped workload.
func benchCluster(b *testing.B, n int) {
	keys := keysOnShards(b, n, 4)
	shards := make([]Shard, n)
	tcs := make([]*LocalShard, n)
	for i := 0; i < n; i++ {
		objs := make(map[string]core.StoreRef)
		for _, key := range keys[i] {
			objs[objectID(key)] = core.StoreRef{Table: "Seats", Key: key, Column: "Free"}
		}
		s, err := OpenLocal(LocalConfig{
			Index:   i,
			Dir:     b.TempDir(),
			Schemas: []ldbs.Schema{seatSchema()},
			Seed:    seatSeeder(keys[i], 1<<40),
			Objects: objs,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		tcs[i] = s
		shards[i] = s
	}
	cl, err := NewCluster(Config{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	var all []string
	for _, g := range keys {
		all = append(all, g...)
	}
	ctx := context.Background()
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			tx := fmt.Sprintf("b-%d", seq.Add(1))
			sess, err := cl.Begin(tx)
			if err != nil {
				b.Fatal(err)
			}
			obj := core.ObjectID(objectID(all[i%len(all)]))
			if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
				b.Fatal(err)
			}
			if err := sess.Apply(obj, sem.Int(-1)); err != nil {
				b.Fatal(err)
			}
			if err := sess.Commit(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCluster1Shard(b *testing.B)  { benchCluster(b, 1) }
func BenchmarkCluster4Shards(b *testing.B) { benchCluster(b, 4) }
