package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/sem"
)

// TestLocalShardRestartReconstructsSleeper: a plain LocalShard keeps its
// sleepers across Kill + Restart too — the cluster's awaken finds the stale
// sub-session superseded and re-resolves onto the reconstructed sleeper.
func TestLocalShardRestartReconstructsSleeper(t *testing.T) {
	tc := newTestCluster(t, 1, 2, 10, false)
	ctx := context.Background()
	key := tc.keys[0][0]
	obj := core.ObjectID(objectID(key))

	sess, err := tc.cl.Begin("dozer")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Apply(obj, sem.Int(-2)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Sleep(); err != nil {
		t.Fatal(err)
	}

	tc.shards[0].Kill()
	if err := tc.shards[0].Restart(); err != nil {
		t.Fatal(err)
	}
	if st, err := tc.shards[0].TxState("dozer"); err != nil || st != core.StateSleeping {
		t.Fatalf("TxState after restart = %v, %v; want Sleeping", st, err)
	}
	resumed, err := sess.Awake()
	if err != nil || !resumed {
		t.Fatalf("Awake after restart = %v, %v; want resumed", resumed, err)
	}
	if err := sess.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tc.free(t, key); got != 8 {
		t.Fatalf("Free = %d, want 8", got)
	}
	if _, err := tc.shards[0].DB().ReadCommitted(SleepTable, "dozer", SleepColumn); err == nil {
		t.Fatal("sleep journal row survived the commit")
	}
}

// TestLocalShardStaleSessionAfterRestart: a session begun before a Kill
// refuses every call with ErrShardDown once the shard restarted, instead of
// answering from the dead manager.
func TestLocalShardStaleSessionAfterRestart(t *testing.T) {
	tc := newTestCluster(t, 1, 1, 10, false)
	ctx := context.Background()
	obj := core.ObjectID(objectID(tc.keys[0][0]))
	s := tc.shards[0]

	sess, err := s.Begin("stale")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	s.Kill()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Read(obj); !errors.Is(err, ErrShardDown) {
		t.Fatalf("Read on a stale session = %v, want ErrShardDown", err)
	}
	if err := sess.Commit(ctx); !errors.Is(err, ErrShardDown) {
		t.Fatalf("Commit on a stale session = %v, want ErrShardDown", err)
	}
	if got := tc.free(t, tc.keys[0][0]); got != 10 {
		t.Fatalf("Free = %d after the stale commit, want 10", got)
	}
}

// TestLocalShardRestartDropsBadJournalRow: a journal row adoption cannot
// replay is deleted when it is dropped, so it does not fail again on every
// later restart.
func TestLocalShardRestartDropsBadJournalRow(t *testing.T) {
	tc := newTestCluster(t, 1, 1, 10, false)
	s := tc.shards[0]
	var (
		mu   sync.Mutex
		logs []string
	)
	s.logf = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	mentions := func(id string) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range logs {
			if strings.Contains(l, id) {
				return true
			}
		}
		return false
	}

	ctx := context.Background()
	tx := s.DB().Begin()
	if err := tx.Upsert(ctx, SleepTable, "garbled", ldbs.Row{SleepColumn: sem.Str("{not json")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	s.Kill()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if !mentions("garbled") {
		t.Fatalf("restart did not report the dropped row; logs: %q", logs)
	}
	if _, err := s.DB().ReadCommitted(SleepTable, "garbled", SleepColumn); err == nil {
		t.Fatal("the dropped journal row survived the restart")
	}

	mu.Lock()
	logs = nil
	mu.Unlock()
	s.Kill()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if mentions("garbled") {
		t.Fatalf("second restart met the dropped row again: %q", logs)
	}
}

// TestOpenLocalPurgesSleepJournal: a first open deletes the journal rows an
// earlier process life left behind — that process's sleepers died with its
// GTM — so a later in-process Restart has nothing to adopt.
func TestOpenLocalPurgesSleepJournal(t *testing.T) {
	tc := newTestCluster(t, 1, 1, 10, false)
	ctx := context.Background()
	obj := core.ObjectID(objectID(tc.keys[0][0]))
	s := tc.shards[0]

	sess, err := s.Begin("dozer")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Sleep(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().ReadCommitted(SleepTable, "dozer", SleepColumn); err != nil {
		t.Fatalf("sleep was not journaled: %v", err)
	}
	s.Close()

	s2, err := OpenLocal(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rows := 0
	tx := s2.DB().Begin()
	if err := tx.Scan(ctx, SleepTable, func(string, ldbs.Row) bool {
		rows++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if rows != 0 {
		t.Fatalf("sleep journal holds %d rows after a first open, want 0", rows)
	}

	s2.Kill()
	if err := s2.Restart(); err != nil {
		t.Fatal(err)
	}
	s2.mu.Lock()
	adopted := len(s2.adopted)
	s2.mu.Unlock()
	if adopted != 0 {
		t.Fatalf("restart adopted %d sleepers, want 0", adopted)
	}
	if st, err := s2.TxState("dozer"); err == nil && st == core.StateSleeping {
		t.Fatal("the earlier process life's sleeper came back")
	}
}

// TestSleepAfterCommitLeavesNoJournalRow: Sleep on a finished session
// journals a row before the core refuses the sleep. The refusal must delete
// that row, or the next Restart adopts the committed transaction as an
// empty sleeper.
func TestSleepAfterCommitLeavesNoJournalRow(t *testing.T) {
	tc := newTestCluster(t, 1, 1, 10, false)
	ctx := context.Background()
	obj := core.ObjectID(objectID(tc.keys[0][0]))
	s := tc.shards[0]

	sess, err := s.Begin("done")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Apply(obj, sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sess.Sleep(); err == nil {
		t.Fatal("Sleep on a committed transaction succeeded")
	}

	s.Kill()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	adopted := len(s.adopted)
	s.mu.Unlock()
	if adopted != 0 {
		t.Fatalf("restart adopted %d sleepers, want 0", adopted)
	}
	rows := 0
	tx := s.DB().Begin()
	if err := tx.Scan(ctx, SleepTable, func(string, ldbs.Row) bool {
		rows++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if rows != 0 {
		t.Fatalf("sleep journal holds %d rows, want 0", rows)
	}
	if got := tc.free(t, tc.keys[0][0]); got != 9 {
		t.Fatalf("Free = %d, want 9", got)
	}
}
