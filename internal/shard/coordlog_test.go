package shard

import (
	"errors"
	"io"
	"os"
	"sync"
	"testing"

	"preserial/internal/wire"
)

// countLogRecords replays the raw coordinator log, returning how many
// intact records precede the end (or a torn tail).
func countLogRecords(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for {
		var rec logRecord
		if err := wire.ReadMsg(f, &rec); err != nil {
			if !errors.Is(err, io.EOF) {
				return n // torn tail ends the count, like recovery
			}
			return n
		}
		n++
	}
}

// TestCoordLogCompactionAcrossParticipantRestart drives the full decision
// log lifecycle: settled decide/done pairs accumulate in the file, a
// participant dies after one more decision is logged, and the coordinator
// reopens — compaction must rewrite the log down to just the pending
// decision (dropping every settled pair and a torn tail appended by a
// simulated crash), and resolving it across the participant's restart
// applies the logged write set exactly once.
func TestCoordLogCompactionAcrossParticipantRestart(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 50, true)
	a, b := tc.keys[0][0], tc.keys[1][0]
	logPath := tc.cl.log.path

	// Five settled cross-shard commits: ten records (decide+done each).
	for i := 0; i < 5; i++ {
		if err := tc.book(t, "settled-"+string(rune('a'+i)), -1, a, b); err != nil {
			t.Fatalf("settled commit %d: %v", i, err)
		}
	}
	if got := countLogRecords(t, logPath); got != 10 {
		t.Fatalf("log has %d records after 5 settled commits, want 10", got)
	}

	// One decision outlives its participant: shard 1 dies right after the
	// decide record is durable, so no done is ever logged.
	var once sync.Once
	tc.cl.HookAfterLog = func(string) { once.Do(tc.shards[1].Kill) }
	if err := tc.book(t, "orphan", -1, a, b); err != nil {
		t.Fatalf("commit past the logged decision must succeed: %v", err)
	}
	tc.cl.HookAfterLog = nil
	if got := countLogRecords(t, logPath); got != 11 {
		t.Fatalf("log has %d records with one orphan decision, want 11", got)
	}

	// The coordinator crashes mid-append: garbage after the last fsynced
	// record. Recovery must shrug it off.
	tc.cl.Close()
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen over the restarted participant: the in-doubt set is exactly
	// the orphan, and the compacted file holds only its decide record.
	if err := tc.shards[1].Restart(); err != nil {
		t.Fatalf("restart participant: %v", err)
	}
	cl2, err := NewCluster(Config{
		Shards:       []Shard{tc.shards[0], tc.shards[1]},
		CoordLogPath: logPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if pending := cl2.InDoubt(); len(pending) != 1 || pending[0] != "orphan" {
		t.Fatalf("recovered in-doubt = %v, want [orphan]", pending)
	}
	if got := countLogRecords(t, logPath); got != 1 {
		t.Fatalf("compacted log has %d records, want 1", got)
	}

	// Resolution drives the logged write set onto the restarted shard
	// exactly once; shard 0 already applied its slice in phase 2.
	if resolved, err := cl2.ResolveInDoubt(); err != nil || resolved != 1 {
		t.Fatalf("ResolveInDoubt = %d, %v, want 1, nil", resolved, err)
	}
	if got := tc.free(t, a); got != 44 {
		t.Fatalf("%s = %d, want 44", a, got)
	}
	if got := tc.free(t, b); got != 44 {
		t.Fatalf("%s = %d, want 44", b, got)
	}
	if resolved, err := cl2.ResolveInDoubt(); err != nil || resolved != 0 {
		t.Fatalf("second resolve = %d, %v — double apply", resolved, err)
	}

	// A further reopen compacts to an empty log: the orphan's done record
	// was appended at resolution, settling the pair.
	cl2.Close()
	cl3, err := NewCluster(Config{
		Shards:       []Shard{tc.shards[0], tc.shards[1]},
		CoordLogPath: logPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl3.Close()
	if pending := cl3.InDoubt(); len(pending) != 0 {
		t.Fatalf("settled decision survived compaction: %v", pending)
	}
	if got := countLogRecords(t, logPath); got != 0 {
		t.Fatalf("log has %d records after full settlement, want 0", got)
	}
}

// TestCoordLogLostDoneResolvesOnce: the done record is written without an
// fsync, so a crash may lose it. Cut the trailing done record from the log
// as such a crash would, restart the shards and the coordinator, and
// resolve: the decision re-resolves exactly once — the participants'
// decision markers show its write set already landed, so nothing replays.
func TestCoordLogLostDoneResolvesOnce(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 50, true)
	a, b := tc.keys[0][0], tc.keys[1][0]
	logPath := tc.cl.log.path
	for _, tx := range []string{"x0", "x1", "x2"} {
		if err := tc.book(t, tx, -1, a, b); err != nil {
			t.Fatalf("commit %s: %v", tx, err)
		}
	}
	if got := countLogRecords(t, logPath); got != 6 {
		t.Fatalf("log has %d records after 3 settled commits, want 6", got)
	}

	// Find where the last record starts; it must be x2's done.
	tc.cl.Close()
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	var rec logRecord
	for {
		off, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			t.Fatal(err)
		}
		var r logRecord
		if err := wire.ReadMsg(f, &r); err != nil {
			break
		}
		last, rec = off, r
	}
	f.Close()
	if rec.Kind != recordDone || rec.Tx != "x2" {
		t.Fatalf("last record = %s %s, want done x2", rec.Kind, rec.Tx)
	}
	if err := os.Truncate(logPath, last); err != nil {
		t.Fatal(err)
	}

	// The whole node crashed: the shards keep only what their WALs hold.
	for i, s := range tc.shards {
		s.Kill()
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
	if pending := cl2.InDoubt(); len(pending) != 1 || pending[0] != "x2" {
		t.Fatalf("recovered in-doubt = %v, want [x2]", pending)
	}
	if resolved, err := cl2.ResolveInDoubt(); err != nil || resolved != 1 {
		t.Fatalf("ResolveInDoubt = %d, %v, want 1, nil", resolved, err)
	}
	if got := cl2.Stats()["cluster_2pc_replays"]; got != 0 {
		t.Fatalf("cluster_2pc_replays = %d, want 0: the marker probe must find x2 landed", got)
	}
	for _, key := range []string{a, b} {
		if got := tc.free(t, key); got != 47 {
			t.Fatalf("%s = %d, want 47 (three bookings of one seat)", key, got)
		}
	}
}
