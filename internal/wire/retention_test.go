package wire

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/sem"
)

// TestEngineForgetsTerminalByCount: the engine holds the sessions of at
// most core.TerminalRetention terminal transactions, however recent, so
// its memory does not grow with the rate transactions finish. A sleeper
// that an awake finds invalidated counts as finished too. Of an older one
// it keeps only the terminal reply, until the age sweep.
func TestEngineForgetsTerminalByCount(t *testing.T) {
	store := core.NewMemStore()
	m := core.NewManager(store)
	t.Cleanup(m.Close)
	for _, k := range []string{"X", "Y"} {
		ref := core.StoreRef{Table: "T", Key: k, Column: "v"}
		store.Seed(ref, sem.Int(1_000_000_000))
		if err := m.RegisterAtomicObject(core.ObjectID(k), ref); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(NewManagerBackend(m), EngineOptions{})
	defer e.Stop()
	owner := NewOwner("test")
	seqs := map[string]uint64{}
	serve := func(req *Request) *Response {
		t.Helper()
		seqs[req.Tx]++
		req.Seq = seqs[req.Tx]
		resp := e.Serve(req, owner)
		if !resp.OK {
			t.Fatalf("%s %s: %s", req.Op, req.Tx, resp.Err)
		}
		return resp
	}
	minusOne := FromSem(sem.Int(-1))
	book := func(tx, obj string, class sem.Class) {
		serve(&Request{Op: OpBegin, Tx: tx})
		serve(&Request{Op: OpInvoke, Tx: tx, Object: obj, Class: ClassName(class)})
		serve(&Request{Op: OpApply, Tx: tx, Object: obj, Operand: &minusOne})
		serve(&Request{Op: OpCommit, Tx: tx})
	}
	const bookings, awakeAborts = 20_000, 2_000
	for i := 0; i < bookings; i++ {
		book(fmt.Sprintf("b%d", i), "X", sem.AddSub)
	}
	for i := 0; i < awakeAborts; i++ {
		s := fmt.Sprintf("s%d", i)
		serve(&Request{Op: OpBegin, Tx: s})
		serve(&Request{Op: OpInvoke, Tx: s, Object: "Y", Class: ClassName(sem.AddSub)})
		serve(&Request{Op: OpSleep, Tx: s})
		book(fmt.Sprintf("w%d", i), "Y", sem.Assign) // incompatible with the sleeper's add/sub
		if resp := serve(&Request{Op: OpAwake, Tx: s}); resp.Resumed {
			t.Fatalf("%s resumed past an incompatible commit", s)
		}
	}

	clients, owners, dedups, replies := e.counts()
	if clients > core.TerminalRetention || owners > core.TerminalRetention || dedups > core.TerminalRetention {
		t.Fatalf("after %d terminal transactions the engine holds %d clients, %d owners, %d dedup windows; bound %d",
			bookings+2*awakeAborts, clients, owners, dedups, core.TerminalRetention)
	}
	if want := bookings + 2*awakeAborts - core.TerminalRetention; replies != want {
		t.Fatalf("%d terminal replies kept past the bound, want %d until the age sweep", replies, want)
	}
	if len(owner.Owned()) != 0 {
		t.Fatalf("owner still tracks %d finished transactions", len(owner.Owned()))
	}
	if !e.Knows(fmt.Sprintf("s%d", awakeAborts-1)) {
		t.Error("the newest terminal transaction was forgotten")
	}
	if e.Knows("b0") {
		t.Error("the oldest terminal transaction is still held")
	}

	e.Sweep(0)
	if n := e.entries(); n != 0 {
		t.Fatalf("after Sweep(0) the engine holds %d entries", n)
	}
}

// counts counts what the engine holds: sessions, owner keys, dedup windows,
// and terminal replies kept past the count bound.
func (e *Engine) counts() (sessions, owners, windows, replies int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ent := range e.txs {
		switch {
		case ent.sess != nil:
			sessions++
		case ent.finished():
			replies++
		}
		if ent.owner != nil {
			owners++
		}
		if ent.dedup != nil {
			windows++
		}
	}
	return
}

// entries counts the transactions the engine holds anything of, and the
// finished ones still queued.
func (e *Engine) entries() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.txs) + e.recent.Len() + e.kept.Len()
}

// TestReplayedCommitAfterCountEviction: a commit whose reply was lost is
// still replayed once more than core.TerminalRetention other transactions
// have finished, core has retired the id and the engine has dropped its
// session. The client reconnects the way ResilientConn does: attach, state,
// then the commit again under its sequence number.
func TestReplayedCommitAfterCountEviction(t *testing.T) {
	srv, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustCall := func(c *Conn, req *Request) *Response {
		t.Helper()
		resp, err := c.call(req)
		if err != nil {
			t.Fatalf("%s %s: %v", req.Op, req.Tx, err)
		}
		return resp
	}
	const tx = "lost-ack"
	wv := FromSem(sem.Int(-1))
	mustCall(cn, &Request{Op: OpBegin, Tx: tx, Seq: 1})
	mustCall(cn, &Request{Op: OpInvoke, Tx: tx, Object: "flight", Class: ClassName(sem.AddSub), Seq: 2})
	mustCall(cn, &Request{Op: OpApply, Tx: tx, Object: "flight", Operand: &wv, Seq: 3})
	mustCall(cn, &Request{Op: OpCommit, Tx: tx, Seq: 4})
	cn.Close() // the ack is lost with the link

	e := srv.Engine()
	filler := NewOwner("filler")
	for i := 0; i <= core.TerminalRetention; i++ {
		f := fmt.Sprintf("f%d", i)
		for seq, op := range []Op{OpBegin, OpCommit} {
			if resp := e.Serve(&Request{Op: op, Tx: f, Seq: uint64(seq + 1)}, filler); !resp.OK {
				t.Fatalf("%s %s: %s", op, f, resp.Err)
			}
		}
	}
	if e.Knows(tx) {
		t.Fatal("the engine still holds the session; the test evicts nothing")
	}

	cn2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn2.Close()
	mustCall(cn2, &Request{Op: OpAttach, Tx: tx})
	if _, err := cn2.State(tx); err == nil || !strings.Contains(err.Error(), "unknown transaction") {
		t.Fatalf("state after core retired the id: %v, want unknown transaction", err)
	}
	if again := mustCall(cn2, &Request{Op: OpCommit, Tx: tx, Seq: 4}); !again.Replayed {
		t.Fatal("the retried commit executed again instead of being replayed")
	}
	if _, err := cn2.call(&Request{Op: OpBegin, Tx: tx, Seq: 1}); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("begin on an id whose reply is kept: %v, want already exists", err)
	}
	v, err := cn2.SnapshotRead("flight", "")
	if err != nil || v.Int64() != 49 {
		t.Fatalf("flight = %s (%v), want 49: the booking applied once", v, err)
	}

	// The age sweep frees the reply; the id is then unknown, as a
	// ResilientConn reports with ErrTxLost.
	e.Sweep(0)
	if _, err := cn2.call(&Request{Op: OpAttach, Tx: tx}); err == nil || !strings.Contains(err.Error(), "no transaction") {
		t.Fatalf("attach after the sweep: %v", err)
	}
}

// TestUnknownTxLeavesNoWindow: a sequenced request that names a
// transaction the engine does not know gets "unknown transaction", and a
// sequenced begin that fails is refused; neither leaves a dedup window
// that no sweep would free.
func TestUnknownTxLeavesNoWindow(t *testing.T) {
	m := core.NewManager(core.NewMemStore())
	t.Cleanup(m.Close)
	e := NewEngine(NewManagerBackend(m), EngineOptions{})
	defer e.Stop()
	owner := NewOwner("test")
	for i := 0; i < 100; i++ {
		resp := e.Serve(&Request{Op: OpCommit, Tx: fmt.Sprintf("ghost%d", i), Seq: 1}, owner)
		if resp.OK || !strings.Contains(resp.Err, "unknown transaction") {
			t.Fatalf("commit of an unknown id: %+v", resp)
		}
	}
	// A begin the GTM refuses leaves none either: the id is taken in core.
	if err := m.Begin("taken"); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 100; seq++ {
		if resp := e.Serve(&Request{Op: OpBegin, Tx: "taken", Seq: seq}, owner); resp.OK {
			t.Fatal("a begin of an id core holds succeeded")
		}
	}
	if _, _, windows, _ := e.counts(); windows != 0 {
		t.Fatalf("%d dedup windows left for unknown ids and refused begins", windows)
	}
	if n := e.entries(); n != 0 {
		t.Fatalf("%d entries left for unknown ids and refused begins", n)
	}
}

// forgetsAll sweeps until the engine holds nothing: a hang-up reaches
// DisconnectOwner on the server's own goroutine.
func forgetsAll(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.Sweep(0)
		n := e.entries()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the engine still holds %d entries", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineForgetsRefusedCommit: a commit the CHECK constraint refuses
// ends its transaction without a successful terminal response. The engine
// learns that from the failed commit, so the sweep forgets it while the
// client is still connected, and the hang-up leaves nothing behind.
func TestEngineForgetsRefusedCommit(t *testing.T) {
	srv, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.Begin("greedy"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("greedy", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("greedy", "flight", sem.Int(-51)); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("greedy"); err == nil || !strings.Contains(err.Error(), "sst-failure") {
		t.Fatalf("overbooking commit = %v, want sst-failure", err)
	}
	srv.Sweep(0)
	if srv.Engine().Knows("greedy") {
		t.Fatal("the refused commit's transaction survived the sweep")
	}
	cn.Close()
	forgetsAll(t, srv.Engine())
}

// TestEngineForgetsOrphanedSnapshot: a read-only session whose client hangs
// up is closed by DisconnectOwner, and the sweep then forgets it.
func TestEngineForgetsOrphanedSnapshot(t *testing.T) {
	srv, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.BeginReadOnly("ro"); err != nil {
		t.Fatal(err)
	}
	if v, err := cn.Read("ro", "flight"); err == nil {
		t.Fatalf("read before the read invoke = %s", v)
	}
	cn.Close()
	forgetsAll(t, srv.Engine())
	if srv.Engine().Knows("ro") {
		t.Fatal("the orphaned snapshot session survived the sweep")
	}
}

// TestEngineHeapFlatPastRetention: past the first core.TerminalRetention
// sequenced bookings, each further one leaves at most its kept terminal
// reply on the heap (until the age sweep), not its session, ownership,
// dedup window or GTM record. Before the count bound a finished
// transaction held about 1.1 KB until the age sweep.
func TestEngineHeapFlatPastRetention(t *testing.T) {
	if raceEnabled {
		// It reads the same there (207 B per booking) but takes 16 s, and
		// CI runs this package five times under the race detector;
		// TestEngineForgetsTerminalByCount races the same code.
		t.Skip("a heap measurement, 6x slower under the race detector")
	}
	store := core.NewMemStore()
	m := core.NewManager(store)
	t.Cleanup(m.Close)
	ref := core.StoreRef{Table: "T", Key: "X", Column: "v"}
	store.Seed(ref, sem.Int(1<<40))
	if err := m.RegisterAtomicObject("X", ref); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(NewManagerBackend(m), EngineOptions{})
	defer e.Stop()
	owner := NewOwner("heap")
	minusOne := FromSem(sem.Int(-1))
	n := 0
	book := func(count int) {
		for end := n + count; n < end; n++ {
			tx := fmt.Sprintf("h%07d", n)
			for seq, req := range []Request{
				{Op: OpBegin, Tx: tx},
				{Op: OpInvoke, Tx: tx, Object: "X", Class: ClassName(sem.AddSub)},
				{Op: OpApply, Tx: tx, Object: "X", Operand: &minusOne},
				{Op: OpCommit, Tx: tx},
			} {
				req.Seq = uint64(seq + 1)
				if resp := e.Serve(&req, owner); !resp.OK {
					t.Fatalf("%s %s: %s", req.Op, tx, resp.Err)
				}
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const rounds = 10
	// A kept reply: the entry, its map slot and queue slot, the id and
	// the JSON. The margin allows 2 MiB for allocator slack on top.
	const replyBudget, slack = 400, 2 << 20
	book(core.TerminalRetention)
	first := heap()
	book((rounds - 1) * core.TerminalRetention)
	last := heap()
	past := uint64((rounds - 1) * core.TerminalRetention)
	t.Logf("heap after %d bookings %d KiB, after %d %d KiB: %.0f B per booking past the bound",
		core.TerminalRetention, first>>10, n, last>>10, (float64(last)-float64(first))/float64(past))
	if last > first+past*replyBudget+slack {
		t.Fatalf("heap grew from %d to %d bytes over %d bookings past the bound; budget %d B each",
			first, last, past, replyBudget)
	}
	if _, _, _, replies := e.counts(); replies != int(past) {
		t.Fatalf("%d replies kept, want %d", replies, past)
	}
}

// TestEngineForgetsReapedSleeper: a transaction put to sleep by its
// client's hang-up and then aborted by the GTM before the client came back
// (the supervisor reaping an expired sleeper) is forgotten by the sweep
// loop, though no request ever reports its end.
func TestEngineForgetsReapedSleeper(t *testing.T) {
	srv, addr := newTestServerOpts(t, ServerOptions{Retention: 60 * time.Millisecond})
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.Begin("gone"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("gone", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	cn.Close()
	m := srv.e.b.(managerBackend).m
	deadline := time.Now().Add(5 * time.Second)
	for st, _ := m.TxState("gone"); st != core.StateSleeping; st, _ = m.TxState("gone") {
		if time.Now().After(deadline) {
			t.Fatalf("the hang-up left the transaction %s", st)
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Abort("gone"); err != nil {
		t.Fatal(err)
	}
	for srv.Engine().Knows("gone") {
		if time.Now().After(deadline) {
			t.Fatal("the engine still holds the aborted sleeper")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
