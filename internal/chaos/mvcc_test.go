package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/faultnet"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// TestSnapshotConsistencyUnderBatchedCommit drives money-transfer-style
// transactions (move one seat from counter A to counter B) through the
// batching SST executor while a fleet of read-only snapshot sessions sums
// every counter, with one crash-restart mid-traffic. The oracles:
//
//   - every complete snapshot sum equals the initial total exactly — a
//     transfer conserves seats, so any consistent cut does too; a torn read
//     (seeing A debited but not B credited, or half an SST batch) shows
//     up as a wrong sum;
//   - the committed total after the final recovery equals the initial
//     total — an SST batch that lands half a transfer across the crash
//     breaks conservation;
//   - the snapshot read path was actually exercised and some store
//     transaction carried more than one commit (their counters moved), so
//     the test cannot silently degrade into covering neither.
func TestSnapshotConsistencyUnderBatchedCommit(t *testing.T) {
	writers, readers, runFor := 4, 3, 2500*time.Millisecond
	if !testing.Short() {
		writers, readers, runFor = 8, 4, 6*time.Second
	}
	const objects = 8
	const seats = int64(1000)
	const total = int64(objects) * seats

	h, err := NewHarnessOpts(t.TempDir(), objects, seats, faultnet.Config{Seed: 91},
		core.WithSSTExecutor(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Mild network faults on top of the crash: enough to exercise reader
	// reconnects without starving the run.
	h.Proxy.SetConfig(faultnet.Config{
		Seed:      92,
		DropProb:  0.01,
		DelayProb: 0.05,
		Delay:     2 * time.Millisecond,
	})

	deadline := time.Now().Add(runFor)
	var wg sync.WaitGroup

	// Writers: transfers through resilient connections (they ride out the
	// crash). Whether any individual transfer lands is irrelevant to the
	// oracles — both legs travel in one SST write set, so every outcome
	// conserves the total.
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rc := wire.DialResilient(h.Addr(), resilientOpts(int64(100+id)))
			defer rc.Close()
			rng := rand.New(rand.NewSource(int64(id)*104729 + 7))
			for i := 0; time.Now().Before(deadline); i++ {
				tx := fmt.Sprintf("xfer-%d-%d", id, i)
				src := rng.Intn(objects)
				dst := (src + 1 + rng.Intn(objects-1)) % objects
				if err := rc.Begin(tx); err != nil {
					continue
				}
				ok := rc.Invoke(tx, h.Object(src), sem.AddSub, "") == nil &&
					rc.Apply(tx, h.Object(src), sem.Int(-1)) == nil &&
					rc.Invoke(tx, h.Object(dst), sem.AddSub, "") == nil &&
					rc.Apply(tx, h.Object(dst), sem.Int(1)) == nil
				if !ok {
					_ = rc.Abort(tx)
					continue
				}
				_ = rc.Commit(tx)
			}
		}(wr)
	}

	// Burster: in-process transfers on whatever generation is current,
	// committed four at a time over disjoint pairs. RequestCommit only
	// enqueues, so a burst is queued before a worker is back from the store
	// and rides one store transaction. A burst that straddles the crash
	// aborts or half-completes as transactions, never as transfers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			h.mu.Lock()
			m := h.m
			h.mu.Unlock()
			for p := 0; p < objects; p += 2 {
				tx := core.TxID(fmt.Sprintf("burst-%d-%d", i, p))
				src, dst := core.ObjectID(h.Object(p)), core.ObjectID(h.Object(p+1))
				if m.Begin(tx) != nil {
					continue
				}
				stage := func(obj core.ObjectID, delta int64) bool {
					granted, err := m.Invoke(tx, obj, sem.Op{Class: sem.AddSub})
					return err == nil && granted && m.Apply(tx, obj, sem.Int(delta)) == nil
				}
				if !stage(src, -1) || !stage(dst, 1) {
					_ = m.Abort(tx)
					continue
				}
				_ = m.RequestCommit(tx)
			}
			// Long enough for the burst to publish: the next one never
			// queues behind this one's committer slots.
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Readers: read-only snapshot sessions over plain connections,
	// redialing through crash and severed links. Partial snapshots (an
	// error mid-session) prove nothing and are discarded; complete ones
	// must sum to the exact total.
	var mu sync.Mutex
	var sums, torn int
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var cn *wire.Conn
			defer func() {
				if cn != nil {
					cn.Close()
				}
			}()
			for i := 0; time.Now().Before(deadline); i++ {
				if cn == nil {
					c, err := wire.Dial(h.Addr())
					if err != nil {
						time.Sleep(20 * time.Millisecond)
						continue
					}
					c.SetCallTimeout(2 * time.Second)
					cn = c
				}
				tx := fmt.Sprintf("ro-%d-%d", id, i)
				if err := cn.BeginReadOnly(tx); err != nil {
					cn.Close()
					cn = nil
					continue
				}
				var sum int64
				complete := true
				for o := 0; o < objects; o++ {
					if err := cn.Invoke(tx, h.Object(o), sem.Read, ""); err != nil {
						complete = false
						break
					}
					v, err := cn.Read(tx, h.Object(o))
					if err != nil {
						complete = false
						break
					}
					sum += v.Int64()
				}
				if !complete {
					cn.Close()
					cn = nil
					continue
				}
				_ = cn.Commit(tx) // releases the snapshot pin
				mu.Lock()
				sums++
				if sum != total {
					torn++
					if torn == 1 {
						t.Errorf("snapshot %s saw total %d, want %d — inconsistent cut", tx, sum, total)
					}
				}
				mu.Unlock()
			}
		}(rd)
	}

	// One crash-restart while both fleets are active.
	time.Sleep(runFor / 3)
	h.Crash()
	time.Sleep(50 * time.Millisecond)
	if err := h.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	wg.Wait()

	// Final audit on a freshly recovered generation: the committed state
	// must conserve the total no matter which transfers (or which parts of
	// which epochs) survived the crash.
	h.Crash()
	if err := h.Restart(); err != nil {
		t.Fatalf("final restart: %v", err)
	}
	final, err := h.Total()
	if err != nil {
		t.Fatal(err)
	}
	if final != total {
		t.Errorf("committed total after recovery = %d, want %d — a transfer (or SST batch) half-landed", final, total)
	}

	if sums == 0 {
		t.Error("no snapshot session ever completed; the consistency oracle never ran")
	}
	if torn > 0 {
		t.Errorf("%d of %d snapshot sums were inconsistent", torn, sums)
	}
	metrics := h.Reg.Snapshot()
	if metrics["mvcc_snapshot_reads_total"] == 0 {
		t.Error("mvcc_snapshot_reads_total = 0; reads never took the snapshot path")
	}
	batches, batched := metrics["gtm_sst_batches_total"], metrics["gtm_sst_batch_txs_total"]
	if batched <= batches {
		t.Errorf("%d SSTs in %d batches; no store transaction ever carried two commits", batched, batches)
	}
	t.Logf("snapshots: %d complete sums (%d torn); snapshot reads %d (fallbacks %d); %d SSTs in %d batches",
		sums, torn, metrics["mvcc_snapshot_reads_total"], metrics["mvcc_snapshot_fallbacks_total"],
		batched, batches)
}
