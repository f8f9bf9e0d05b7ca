package wire

import (
	"net"
	"testing"

	"preserial/internal/sem"
)

// TestPrepareDecideOverWire drives 2PC phase 1 + 2 through the protocol:
// prepare stages and returns the write set, decide(commit) publishes it.
func TestPrepareDecideOverWire(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.Begin("coord1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("coord1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("coord1", "flight", sem.Int(-2)); err != nil {
		t.Fatal(err)
	}
	writes, err := cn.Prepare("coord1")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if len(writes) != 1 || writes[0].Table != "Flight" || writes[0].Key != "AZ123" {
		t.Fatalf("staged writes = %+v", writes)
	}
	if v, _ := writes[0].Value.ToSem(); v.Int64() != 48 {
		t.Fatalf("staged value = %s", writes[0].Value.Kind)
	}
	// In doubt: a client abort must be refused.
	if err := cn.Abort("coord1"); err == nil {
		t.Fatal("abort of a prepared transaction must fail")
	}
	if err := cn.Decide("coord1", true); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if st, err := cn.State("coord1"); err != nil || st != "Committed" {
		t.Fatalf("state = %q, %v", st, err)
	}

	// The abort verdict unwinds a prepared transaction.
	if err := cn.Begin("coord2"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("coord2", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("coord2", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cn.Prepare("coord2"); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := cn.Decide("coord2", false); err != nil {
		t.Fatalf("decide abort: %v", err)
	}
	if st, err := cn.State("coord2"); err != nil || st != "Aborted" {
		t.Fatalf("state = %q, %v", st, err)
	}

	// A fresh transaction still sees the decided value: 50 - 2 = 48.
	if err := cn.Begin("reader"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("reader", "flight", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	if v, err := cn.Read("reader", "flight"); err != nil || v.Int64() != 48 {
		t.Fatalf("read = %s, %v", v, err)
	}
}

// TestShardsOpOnSingleNode: a single-manager server has no topology.
func TestShardsOpOnSingleNode(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if _, _, err := cn.Shards(""); err == nil {
		t.Fatal("shards op must fail on a non-sharded backend")
	}
}

// TestDedupCollapseOnTerminal: a committed transaction's replay window
// collapses to the single terminal entry (the bug was holding every entry
// until the sweep, long after the transaction could produce new requests),
// while the terminal response itself stays replayable.
func TestDedupCollapseOnTerminal(t *testing.T) {
	srv, addr := newTestServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	roundTrip := func(req Request) Response {
		t.Helper()
		if err := WriteMsg(conn, &req); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := ReadMsg(conn, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("%s: %s", req.Op, resp.Err)
		}
		return resp
	}
	roundTrip(Request{Op: OpBegin, Tx: "mob", Seq: 1})
	roundTrip(Request{Op: OpInvoke, Tx: "mob", Object: "flight", Class: "add/sub", Seq: 2})
	roundTrip(Request{Op: OpApply, Tx: "mob", Object: "flight", Operand: &Value{Kind: "int", Int: -1}, Seq: 3})
	roundTrip(Request{Op: OpCommit, Tx: "mob", Seq: 4})

	srv.e.mu.Lock()
	w := srv.e.txs["mob"].dedup
	srv.e.mu.Unlock()
	if w == nil {
		t.Fatal("no dedup window for mob")
	}
	w.mu.Lock()
	n := len(w.entries)
	w.mu.Unlock()
	if n != 1 {
		t.Fatalf("window holds %d entries after commit, want 1 (terminal only)", n)
	}
	// The surviving entry still answers a commit retry exactly-once.
	resp := roundTrip(Request{Op: OpCommit, Tx: "mob", Seq: 4})
	if !resp.Replayed {
		t.Fatal("commit retry must be served from the replay window")
	}
}
