package wire

import (
	"strings"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/faultnet"
	"preserial/internal/obs"
	"preserial/internal/sem"
)

func TestDedupWindowBasics(t *testing.T) {
	w := newDedupWindow(4)

	e1, fresh, err := w.admit(1)
	if err != nil || !fresh {
		t.Fatalf("first admit: fresh=%v err=%v", fresh, err)
	}
	w.finish(e1, &Response{OK: true, State: "one"})

	// The same seq is no longer fresh and carries the recorded response.
	e1b, fresh, err := w.admit(1)
	if err != nil || fresh {
		t.Fatalf("readmit: fresh=%v err=%v", fresh, err)
	}
	select {
	case <-e1b.done:
	default:
		t.Fatal("finished entry's done channel not closed")
	}
	if got := w.response(e1b); got == nil || got.State != "one" {
		t.Fatalf("cached response = %+v", got)
	}

	// Sequences far behind the window are refused, not silently replayed.
	for seq := uint64(2); seq <= 10; seq++ {
		e, _, err := w.admit(seq)
		if err != nil {
			t.Fatalf("admit %d: %v", seq, err)
		}
		w.finish(e, &Response{OK: true})
	}
	if _, _, err := w.admit(1); err == nil {
		t.Fatal("seq long past the window must be refused")
	}
}

func TestDedupWindowRacingRetryWaitsForOriginal(t *testing.T) {
	w := newDedupWindow(8)
	orig, fresh, err := w.admit(3)
	if err != nil || !fresh {
		t.Fatal("original admit failed")
	}
	retry, fresh, err := w.admit(3)
	if err != nil || fresh {
		t.Fatal("racing retry must not be fresh")
	}
	got := make(chan *Response, 1)
	go func() {
		<-retry.done
		got <- w.response(retry)
	}()
	select {
	case <-got:
		t.Fatal("retry resolved before the original finished")
	case <-time.After(20 * time.Millisecond):
	}
	w.finish(orig, &Response{OK: true, State: "done"})
	select {
	case r := <-got:
		if r == nil || r.State != "done" {
			t.Fatalf("retry saw %+v", r)
		}
	case <-time.After(time.Second):
		t.Fatal("retry never resolved")
	}
}

// newTestServerOpts is newTestServer with custom server options.
func newTestServerOpts(t *testing.T, opts ServerOptions) (*Server, string) {
	t.Helper()
	store := core.NewMemStore()
	ref := core.StoreRef{Table: "Flight", Key: "AZ123", Column: "FreeTickets"}
	store.Seed(ref, sem.Int(50))
	m := core.NewManager(store)
	if err := m.RegisterAtomicObject("flight", ref); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m, opts)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv.Serve("127.0.0.1:0") }()
	select {
	case <-srv.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never bound")
	}
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
		m.Close()
	})
	return srv, srv.Addr().String()
}

func TestSweepLoopForgetsAfterRetention(t *testing.T) {
	_, addr := newTestServerOpts(t, ServerOptions{Retention: 60 * time.Millisecond})
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("done"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("done"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := cn.State("done"); err != nil {
			if !strings.Contains(err.Error(), "unknown transaction") {
				t.Fatalf("unexpected error: %v", err)
			}
			return // the sweeper loop forgot it on its own
		}
		if time.Now().After(deadline) {
			t.Fatal("sweeper loop never forgot the terminal transaction")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAttachAfterDisconnectFinishesCommit(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const tx = "mobile-1"
	if err := cn.Begin(tx); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke(tx, "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply(tx, "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	// The mobile link dies mid-transaction.
	cn.Close()

	cn2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn2.Close()
	// The server's teardown races us. Don't attach yet — attaching moves
	// ownership to this connection, which (deliberately) stops the dying
	// connection from putting the transaction to sleep. Watch the state
	// first, attach once it is asleep.
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := cn2.State(tx)
		if err != nil {
			t.Fatalf("state: %v", err)
		}
		if st == "Sleeping" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transaction stuck in %s after the disconnect", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cn2.Attach(tx); err != nil {
		t.Fatal(err)
	}
	resumed, err := cn2.Awake(tx)
	if err != nil || !resumed {
		t.Fatalf("awake: resumed=%v err=%v", resumed, err)
	}
	if err := cn2.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// The booking made before the disconnection is durable exactly once.
	if err := cn2.Begin("check"); err != nil {
		t.Fatal(err)
	}
	if err := cn2.Invoke("check", "flight", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	v, err := cn2.Read("check", "flight")
	if err != nil || v.Int64() != 49 {
		t.Fatalf("flight = %s (%v), want 49", v, err)
	}
}

func TestReplayedCommitAcrossReconnect(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const tx = "seq-tx"
	// Mutations carry explicit sequence numbers (what ResilientConn does
	// internally); cn.call is reachable because the test lives in-package.
	mustCall := func(c *Conn, req *Request) *Response {
		t.Helper()
		resp, err := c.call(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		return resp
	}
	mustCall(cn, &Request{Op: OpBegin, Tx: tx, Seq: 1})
	mustCall(cn, &Request{Op: OpInvoke, Tx: tx, Object: "flight", Class: ClassName(sem.AddSub), Seq: 2})
	op := sem.Int(-1)
	wv := FromSem(op)
	mustCall(cn, &Request{Op: OpApply, Tx: tx, Object: "flight", Operand: &wv, Seq: 3})
	first := mustCall(cn, &Request{Op: OpCommit, Tx: tx, Seq: 4})
	if first.Replayed {
		t.Fatal("first commit must not be a replay")
	}
	// The ack is "lost": the client reconnects and retries the same seq.
	cn.Close()
	cn2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn2.Close()
	mustCall(cn2, &Request{Op: OpAttach, Tx: tx})
	second := mustCall(cn2, &Request{Op: OpCommit, Tx: tx, Seq: 4})
	if !second.Replayed {
		t.Fatal("retried commit must be served from the replay window")
	}
	// Exactly one application: 50 − 1 = 49.
	mustCall(cn2, &Request{Op: OpBegin, Tx: "check"})
	mustCall(cn2, &Request{Op: OpInvoke, Tx: "check", Object: "flight", Class: ClassName(sem.Read)})
	v, err := cn2.Read("check", "flight")
	if err != nil || v.Int64() != 49 {
		t.Fatalf("flight = %s (%v), want 49", v, err)
	}
}

func TestDrainSleepsLiveTransactions(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := newTestServerOpts(t, ServerOptions{Obs: reg})
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("live-1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("live-1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}

	rep := srv.Drain(2 * time.Second)
	if rep.Slept != 1 {
		t.Fatalf("drain slept %d transactions, want 1", rep.Slept)
	}
	if !rep.CommitsFlushed {
		t.Fatal("drain reported unflushed commits on an idle server")
	}
	if got := reg.Snapshot()["gtm_drain_sleeping_total"]; got != 1 {
		t.Fatalf("gtm_drain_sleeping_total = %d, want 1", got)
	}
	// The listener is gone; new connections are refused.
	if _, err := DialTimeout(addr, 200*time.Millisecond, time.Second); err == nil {
		t.Fatal("dial after drain must fail")
	}
}

func TestResilientConnRecoversFromKilledConnections(t *testing.T) {
	_, addr := newTestServer(t)
	proxy, err := faultnet.New(addr, faultnet.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	rc := DialResilient(proxy.Addr(), ResilientOptions{
		CallTimeout: 2 * time.Second,
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  50 * time.Millisecond,
		MaxAttempts: 20,
		Seed:        9,
	})
	defer rc.Close()

	const tx = "roaming-1"
	if err := rc.Begin(tx); err != nil {
		t.Fatal(err)
	}
	if err := rc.Invoke(tx, "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	// The network dies under the client mid-transaction.
	proxy.KillAll()
	if err := rc.Apply(tx, "flight", sem.Int(-1)); err != nil {
		t.Fatalf("apply after kill: %v", err)
	}
	proxy.KillAll()
	if err := rc.Commit(tx); err != nil {
		t.Fatalf("commit after kill: %v", err)
	}
	if rc.Reconnects() < 1 {
		t.Fatalf("reconnects = %d, want ≥ 1", rc.Reconnects())
	}
	// Exactly one booking despite two dead connections.
	if err := rc.Begin("check"); err != nil {
		t.Fatal(err)
	}
	if err := rc.Invoke("check", "flight", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	v, err := rc.Read("check", "flight")
	if err != nil || v.Int64() != 49 {
		t.Fatalf("flight = %s (%v), want 49", v, err)
	}
}

// TestResilientOwnedSetFollowsCall pins the owned-set bookkeeping in
// ResilientConn's round trip: after a begin, a dropped link makes the next
// call re-attach and awaken the transaction; after its commit (or an
// abort), a dropped link sends no attach for it.
func TestResilientOwnedSetFollowsCall(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := newTestServerOpts(t, ServerOptions{Obs: reg})
	count := func(op Op) uint64 {
		return reg.Snapshot()[`wire_requests_total{op="`+string(op)+`"}`]
	}
	rc := DialResilient(addr, ResilientOptions{CallTimeout: 5 * time.Second, Seed: 3})
	defer rc.Close()
	watch, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Close()

	const tx = "owned-1"
	if err := rc.Begin(tx); err != nil {
		t.Fatal(err)
	}
	if err := rc.Invoke(tx, "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	rc.DropLink()
	// Wait for the server to put the transaction to sleep, so the re-attach
	// below finds it asleep instead of racing the old link's teardown.
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := watch.State(tx)
		if err != nil {
			t.Fatal(err)
		}
		if st == "Sleeping" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transaction stuck in %s after the link dropped", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := rc.Apply(tx, "flight", sem.Int(-1)); err != nil {
		t.Fatalf("apply after reconnect: %v", err)
	}
	if got := count(OpAttach); got != 1 {
		t.Fatalf("attaches after the first drop = %d, want 1", got)
	}
	if got := count(OpAwake); got != 1 {
		t.Fatalf("awakes after the first drop = %d, want 1", got)
	}

	if err := rc.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := rc.Begin("owned-2"); err != nil {
		t.Fatal(err)
	}
	if err := rc.Abort("owned-2"); err != nil {
		t.Fatal(err)
	}
	rc.DropLink()
	if st, err := rc.State(tx); err != nil || st != "Committed" {
		t.Fatalf("state after the second drop = %q, %v", st, err)
	}
	if got := count(OpAttach); got != 1 {
		t.Fatalf("attaches after the second drop = %d, want 1: a finished transaction was re-attached", got)
	}
	if got := rc.Reconnects(); got != 2 {
		t.Fatalf("reconnects = %d, want 2", got)
	}
}
