package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// newMemCluster builds n volatile in-process shards with `per` seat
// objects each at `seats`, and a cluster without a coordinator log.
func newMemCluster(t testing.TB, n, per int, seats int64) *testCluster {
	t.Helper()
	keys := keysOnShards(t, n, per)
	shards := make([]Shard, n)
	locals := make([]*LocalShard, n)
	for i := range shards {
		s, err := OpenLocal(LocalConfig{
			Index:   i,
			Schemas: []ldbs.Schema{seatSchema()},
			Seed:    seatSeeder(keys[i], seats),
			Objects: seatObjects(keys[i]),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		locals[i], shards[i] = s, s
	}
	cl, err := NewCluster(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return &testCluster{cl: cl, shards: locals, keys: keys}
}

// seatObjects maps seat row keys to their GTM objects.
func seatObjects(keys []string) map[string]core.StoreRef {
	objs := make(map[string]core.StoreRef, len(keys))
	for _, key := range keys {
		objs[objectID(key)] = core.StoreRef{Table: "Seats", Key: key, Column: "Free"}
	}
	return objs
}

// held reports the coordinator's live transactions and kept outcomes.
func (cl *Cluster) held() (live, records int) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.txs), len(cl.records)
}

// TestClusterForgetsPastRetention: a transaction leaves the coordinator's
// live set at its outcome, and the coordinator keeps the outcomes of the
// newest core.TerminalRetention only, however many have finished. No
// sweep runs.
func TestClusterForgetsPastRetention(t *testing.T) {
	tc := newMemCluster(t, 2, 4, 1<<40)
	const bookings, workers = 40_000, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < bookings; i += workers {
				keys := []string{tc.keys[i%2][w]}
				if i%10 == 0 {
					keys = append(keys, tc.keys[1-i%2][w]) // every tenth crosses shards
				}
				if err := tc.book(t, fmt.Sprintf("b%d", i), -1, keys...); err != nil {
					errs <- fmt.Errorf("b%d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	const last = "newest"
	if err := tc.book(t, last, -1, tc.keys[0][0]); err != nil {
		t.Fatal(err)
	}
	live, records := tc.cl.held()
	if live != 0 || records > core.TerminalRetention {
		t.Fatalf("after %d bookings the coordinator holds %d finished transactions and %d outcomes; bound %d",
			bookings+1, live, records, core.TerminalRetention)
	}
	if st, err := tc.cl.TxState(last); err != nil || st != core.StateCommitted {
		t.Fatalf("state of the newest booking = %v, %v; want Committed", st, err)
	}
	if _, err := tc.cl.Begin(last); err == nil {
		t.Fatal("the newest booking's id was reusable")
	}
}

// TestClusterForgetsShardAbortedTransactions: transactions that a shard
// aborted on its own end without a successful terminal response. One is
// then refused its commit, the other's client hangs up; after a sweep the
// engine holds neither, and neither stays live in the coordinator.
func TestClusterForgetsShardAbortedTransactions(t *testing.T) {
	tc := newMemCluster(t, 2, 1, 50)
	e := wire.NewEngine(tc.cl, wire.EngineOptions{})
	defer e.Stop()
	owner := wire.NewOwner("client")
	serve := func(req *wire.Request) *wire.Response {
		t.Helper()
		resp := e.Serve(req, owner)
		if !resp.OK {
			t.Fatalf("%s %s: %s", req.Op, req.Tx, resp.Err)
		}
		return resp
	}
	for _, tx := range []string{"x", "y"} {
		serve(&wire.Request{Op: wire.OpBegin, Tx: tx})
		for _, keys := range tc.keys {
			serve(&wire.Request{Op: wire.OpInvoke, Tx: tx, Object: objectID(keys[0]), Class: "add/sub"})
		}
	}
	if err := tc.shards[0].Manager().Abort("x"); err != nil {
		t.Fatal(err)
	}
	if resp := e.Serve(&wire.Request{Op: wire.OpCommit, Tx: "x"}, owner); resp.OK {
		t.Fatal("x committed after shard 0 aborted it")
	}
	if err := tc.shards[1].Manager().Abort("y"); err != nil {
		t.Fatal(err)
	}
	e.DisconnectOwner(owner)
	e.Sweep(0)
	for _, tx := range []string{"x", "y"} {
		if e.Knows(tx) {
			t.Errorf("the engine still holds %s", tx)
		}
	}
	if live, _ := tc.cl.held(); live != 0 {
		t.Fatalf("%d transactions still live in the coordinator", live)
	}
}

// TestClusterUnwindsShardAbort: once a shard aborted a transaction on its
// own, the coordinator's state query aborts the other participants too and
// lets the transaction go.
func TestClusterUnwindsShardAbort(t *testing.T) {
	tc := newMemCluster(t, 2, 1, 50)
	if err := tc.book(t, "warm", -1, tc.keys[0][0]); err != nil {
		t.Fatal(err)
	}
	sess, err := tc.cl.Begin("z")
	if err != nil {
		t.Fatal(err)
	}
	for _, keys := range tc.keys {
		if err := sess.Invoke(context.Background(), core.ObjectID(objectID(keys[0])), sem.Op{Class: sem.AddSub}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.shards[1].Manager().Abort("z"); err != nil {
		t.Fatal(err)
	}
	if st, err := tc.cl.TxState("z"); err != nil || st != core.StateAborted {
		t.Fatalf("state = %v, %v; want Aborted", st, err)
	}
	if st, err := tc.shards[0].TxState("z"); err != nil || st != core.StateAborted {
		t.Fatalf("shard 0's sub-transaction is %v, %v; want Aborted", st, err)
	}
	if live, _ := tc.cl.held(); live != 0 {
		t.Fatal("the unwound transaction is still live in the coordinator")
	}
	if err := sess.Commit(context.Background()); err == nil {
		t.Fatal("a finished transaction committed")
	}
}

// TestClusterRouterClosesFinishedConnections: a router closes each
// transaction's participant connections at its outcome, so a participant
// is left with at most the router's control connection.
func TestClusterRouterClosesFinishedConnections(t *testing.T) {
	keys := keysOnShards(t, 2, 4)
	regs := make([]*obs.Registry, 2)
	shards := make([]Shard, 2)
	for i := range shards {
		local, err := OpenLocal(LocalConfig{
			Index:   i,
			Schemas: []ldbs.Schema{seatSchema()},
			Seed:    seatSeeder(keys[i], 1000),
			Objects: seatObjects(keys[i]),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(local.Close)
		regs[i] = obs.NewRegistry()
		srv := wire.NewServer(local.Manager(), wire.ServerOptions{Obs: regs[i]})
		done := make(chan error, 1)
		go func() { done <- srv.Serve("127.0.0.1:0") }()
		select {
		case <-srv.Ready():
		case err := <-done:
			t.Fatalf("participant %d never bound: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		remote := NewRemoteShard(i, srv.Addr().String())
		t.Cleanup(func() { remote.Close() })
		shards[i] = remote
	}
	cl, err := NewCluster(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tc := &testCluster{cl: cl, keys: keys}
	for i := 0; i < 200; i++ {
		ks := []string{keys[i/2%2][i%4]}
		if i%2 == 1 {
			ks = []string{keys[0][i%4], keys[1][i%4]}
		}
		if err := tc.book(t, fmt.Sprintf("r%d", i), -1, ks...); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for i, reg := range regs {
		for {
			open := reg.Snapshot()[obs.NameWireConnectionsActive]
			if open <= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("participant %d still has %d connections open", i, open)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if live, _ := cl.held(); live != 0 {
		t.Fatalf("%d finished transactions still live in the router", live)
	}
}
