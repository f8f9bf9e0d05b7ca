package wire

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/sem"
)

func TestValueRoundTrip(t *testing.T) {
	values := []sem.Value{sem.Null(), sem.Int(-5), sem.Float(2.5), sem.Str("hi")}
	for _, v := range values {
		got, err := FromSem(v).ToSem()
		if err != nil || !got.Equal(v) {
			t.Errorf("roundtrip %s -> %s (%v)", v, got, err)
		}
	}
	if _, err := (Value{Kind: "zap"}).ToSem(); err == nil {
		t.Error("unknown kind must fail")
	}
	if v, err := (Value{}).ToSem(); err != nil || !v.IsNull() {
		t.Error("empty kind is null")
	}
}

func TestClassNames(t *testing.T) {
	for _, c := range sem.Classes {
		parsed, err := ParseClass(ClassName(c))
		if err != nil || parsed != c {
			t.Errorf("class %s: %v %v", c, parsed, err)
		}
	}
	if _, err := ParseClass("nope"); err == nil {
		t.Error("unknown class must fail")
	}
	if !strings.HasPrefix(ClassName(sem.Class(42)), "class(") {
		t.Error("unknown class name")
	}
}

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	want := Request{Op: OpInvoke, Tx: "t1", Object: "X", Class: "add/sub"}
	if err := WriteMsg(&buf, &want); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := ReadMsg(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("roundtrip %+v -> %+v", want, got)
	}
	// Oversized frames are rejected on both sides.
	big := Request{Tx: strings.Repeat("x", MaxFrame)}
	if err := WriteMsg(&buf, &big); err == nil {
		t.Error("oversized write must fail")
	}
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if err := ReadMsg(&hdr, &got); err == nil {
		t.Error("oversized read must fail")
	}
}

// newTestServer builds a full middleware stack: ldbs + GTM + TCP server on
// an ephemeral port.
func newTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	db := ldbs.Open(ldbs.Options{})
	if err := db.CreateTable(ldbs.Schema{
		Table:   "Flight",
		Columns: []ldbs.ColumnDef{{Name: "FreeTickets", Kind: sem.KindInt64}},
		Checks:  []ldbs.Check{{Column: "FreeTickets", Op: ldbs.CmpGE, Bound: sem.Int(0)}},
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert(context.Background(), "Flight", "AZ123",
		ldbs.Row{"FreeTickets": sem.Int(50)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(core.NewLDBSStore(db))
	if err := m.RegisterAtomicObject("flight",
		core.StoreRef{Table: "Flight", Key: "AZ123", Column: "FreeTickets"}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m, ServerOptions{})
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		errCh <- srv.Serve("127.0.0.1:0")
	}()
	select {
	case <-srv.Ready():
	case err := <-errCh:
		t.Fatalf("serve: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never bound")
	}
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	return srv, srv.Addr().String()
}

func TestEndToEndBooking(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.Ping(); err != nil {
		t.Fatal(err)
	}
	objs, err := cn.Objects()
	if err != nil || len(objs) != 1 || objs[0] != "flight" {
		t.Fatalf("objects = %v, %v", objs, err)
	}
	if err := cn.Begin("user1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("user1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	v, err := cn.Read("user1", "flight")
	if err != nil || v.Int64() != 50 {
		t.Fatalf("read = %s, %v", v, err)
	}
	if err := cn.Apply("user1", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("user1"); err != nil {
		t.Fatal(err)
	}
	st, err := cn.State("user1")
	if err != nil || st != "Committed" {
		t.Fatalf("state = %q, %v", st, err)
	}
}

func TestConcurrentConnectionsShareObject(t *testing.T) {
	_, addr := newTestServer(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cn, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cn.Close()
			tx := string(rune('a' + i))
			if err := cn.Begin(tx); err != nil {
				errs <- err
				return
			}
			if err := cn.Invoke(tx, "flight", sem.AddSub, ""); err != nil {
				errs <- err
				return
			}
			if err := cn.Apply(tx, "flight", sem.Int(-1)); err != nil {
				errs <- err
				return
			}
			errs <- cn.Commit(tx)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Final tickets: 50 − 8 = 42.
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("check"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("check", "flight", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	v, err := cn.Read("check", "flight")
	if err != nil || v.Int64() != 42 {
		t.Fatalf("final = %s, %v; want 42", v, err)
	}
}

func TestDisconnectionPutsTransactionToSleepAndAttachResumes(t *testing.T) {
	_, addr := newTestServer(t)

	cn1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn1.Begin("mobile"); err != nil {
		t.Fatal(err)
	}
	if err := cn1.Invoke("mobile", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn1.Apply("mobile", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	// The mobile client vanishes mid-transaction.
	cn1.Close()

	// Poll until the server has processed the hang-up.
	cn2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cn2.State("mobile")
		if err == nil && st == "Sleeping" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transaction never went to sleep (state %q, err %v)", st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Reconnect: attach, awake, finish the booking.
	if err := cn2.Attach("mobile"); err != nil {
		t.Fatal(err)
	}
	resumed, err := cn2.Awake("mobile")
	if err != nil || !resumed {
		t.Fatalf("awake = %v, %v", resumed, err)
	}
	if err := cn2.Commit("mobile"); err != nil {
		t.Fatal(err)
	}
	st, err := cn2.State("mobile")
	if err != nil || st != "Committed" {
		t.Fatalf("state = %q, %v", st, err)
	}
}

func TestServerErrors(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.Begin(""); err == nil {
		t.Error("empty tx id must fail")
	}
	if err := cn.Invoke("ghost", "flight", sem.AddSub, ""); err == nil {
		t.Error("unknown tx must fail")
	}
	if err := cn.Attach("ghost"); err == nil {
		t.Error("attach to unknown tx must fail")
	}
	if err := cn.Begin("t"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Begin("t"); err == nil {
		t.Error("duplicate begin must fail")
	}
	if _, err := cn.Read("t", "flight"); err == nil {
		t.Error("read before invoke must fail")
	}
	if err := cn.Apply("t", "flight", sem.Int(1)); err == nil {
		t.Error("apply before invoke must fail")
	}
	// Unknown op goes through the raw framing path.
	if err := WriteMsg(cn.c, &Request{Op: "zap"}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadMsg(cn.c, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "unknown op") {
		t.Errorf("resp = %+v", resp)
	}
}

func TestConstraintViolationOverWire(t *testing.T) {
	_, addr := newTestServer(t)
	// Two bookings race for the last 50 seats — drain to 0 then one more.
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("drain"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("drain", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("drain", "flight", sem.Int(-50)); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("drain"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Begin("over"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("over", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("over", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	err = cn.Commit("over")
	if err == nil || !strings.Contains(err.Error(), "sst-failure") {
		t.Fatalf("overbooking commit = %v, want sst-failure", err)
	}
}

func TestIntrospectionOps(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.Begin("t1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("t1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("t1", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}

	stats, err := cn.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["begun"] != 1 || stats["grants"] != 1 {
		t.Errorf("stats = %v", stats)
	}

	info, err := cn.ObjectInfo("flight")
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "flight" || len(info.Pending) != 1 || info.Pending[0].Tx != "t1" {
		t.Errorf("info = %+v", info)
	}
	if info.Pending[0].Class != "add/sub" {
		t.Errorf("pending class = %s", info.Pending[0].Class)
	}
	v, err := info.Members[""].ToSem()
	if err != nil || v.Int64() != 50 {
		t.Errorf("permanent = %v, %v", v, err)
	}
	if _, err := cn.ObjectInfo("nope"); err == nil {
		t.Error("unknown object must fail")
	}

	txs, err := cn.Transactions()
	if err != nil || len(txs) != 1 || txs[0].ID != "t1" || txs[0].State != "Active" {
		t.Fatalf("txs = %+v, %v", txs, err)
	}
	if err := cn.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	txs, _ = cn.Transactions()
	if txs[0].State != "Committed" {
		t.Errorf("after commit, txs = %+v", txs)
	}
}

func TestWireClientSleepAwakeAbort(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("s1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("s1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Sleep("s1"); err != nil {
		t.Fatal(err)
	}
	if st, _ := cn.State("s1"); st != "Sleeping" {
		t.Fatalf("state = %q", st)
	}
	resumed, err := cn.Awake("s1")
	if err != nil || !resumed {
		t.Fatalf("awake = %v, %v", resumed, err)
	}
	if err := cn.Abort("s1"); err != nil {
		t.Fatal(err)
	}
	if st, _ := cn.State("s1"); st != "Aborted" {
		t.Fatalf("state = %q", st)
	}
	// Sleep on a terminal transaction errors through the wire.
	if err := cn.Sleep("s1"); err == nil {
		t.Error("sleep on aborted tx must fail")
	}
}

func TestInvokeTimeoutOption(t *testing.T) {
	// A server with a short invoke timeout turns indefinite lock waits into
	// errors (the client can retry or abort).
	db := ldbs.Open(ldbs.Options{})
	if err := db.CreateTable(ldbs.Schema{
		Table:   "T",
		Columns: []ldbs.ColumnDef{{Name: "v", Kind: sem.KindInt64}},
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert(context.Background(), "T", "k", ldbs.Row{"v": sem.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(core.NewLDBSStore(db))
	if err := m.RegisterAtomicObject("obj", core.StoreRef{Table: "T", Key: "k", Column: "v"}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m, ServerOptions{InvokeTimeout: 50 * time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv.Serve("127.0.0.1:0") }()
	select {
	case <-srv.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never bound")
	}
	defer func() { srv.Close(); wg.Wait() }()
	cn, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	cn2, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cn2.Close()

	if err := cn.Begin("holder"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("holder", "obj", sem.Assign, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn2.Begin("waiter"); err != nil {
		t.Fatal(err)
	}
	err = cn2.Invoke("waiter", "obj", sem.Assign, "")
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("blocked invoke = %v, want deadline exceeded", err)
	}
}

// TestServerSweepForgetsTerminalTransactions: the sweep makes the engine
// forget a finished transaction and keeps a live one. The GTM retires ids
// by count alone, so the finished one's outcome stays answerable, and its
// id taken, until core.TerminalRetention newer transactions have finished.
func TestServerSweepForgetsTerminalTransactions(t *testing.T) {
	srv, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("done"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("done", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("done"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Begin("live"); err != nil {
		t.Fatal(err)
	}

	removed := srv.Sweep(0) // everything finished, however recent
	if len(removed) != 1 || removed[0] != "done" {
		t.Fatalf("removed = %v", removed)
	}
	// The live transaction survives; the engine forgot the finished one.
	if _, err := cn.State("live"); err != nil {
		t.Errorf("live transaction swept: %v", err)
	}
	if srv.Engine().Knows("done") {
		t.Error("finished transaction still held after sweep")
	}
	if err := cn.Attach("done"); err == nil {
		t.Error("attach to a swept transaction succeeded")
	}
	// Its outcome is answerable and its id taken until the GTM retires it.
	if st, err := cn.State("done"); err != nil || st != "Committed" {
		t.Fatalf("state after sweep = %q, %v; want Committed", st, err)
	}
	if err := cn.Begin("done"); err == nil {
		t.Fatal("id reused before the GTM retired it")
	}
	filler := NewOwner("filler")
	for i := 0; i < core.TerminalRetention; i++ {
		f := fmt.Sprintf("f%d", i)
		for _, op := range []Op{OpBegin, OpCommit} {
			if resp := srv.Engine().Serve(&Request{Op: op, Tx: f}, filler); !resp.OK {
				t.Fatalf("%s %s: %s", op, f, resp.Err)
			}
		}
	}
	if _, err := cn.State("done"); err == nil || !strings.Contains(err.Error(), "unknown transaction") {
		t.Fatalf("state once the GTM retired the id: %v, want unknown transaction", err)
	}
	if err := cn.Begin("done"); err != nil {
		t.Errorf("id not reusable once the GTM retired it: %v", err)
	}
}
