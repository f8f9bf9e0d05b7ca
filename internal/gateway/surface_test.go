package gateway_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// The calls the bench/ module makes on the two client types it drives. The
// bench is a separate module, so without this guard a root-only build would
// not notice a change that breaks it.
var (
	_ interface {
		Begin(tx string) error
		Invoke(tx, object string, class sem.Class, member string) error
		Apply(tx, object string, operand sem.Value) error
		Commit(tx string) error
		SnapshotRead(object, member string) (sem.Value, error)
		Close() error
	} = (*wire.Conn)(nil)
	_ interface {
		Begin(tx string) error
		Invoke(tx, object string, class sem.Class, member string) error
		Apply(tx, object string, operand sem.Value) error
		Commit(tx string) error
		Awake(tx string) (resumed bool, err error)
		ID() string
	} = (*gateway.SessionClient)(nil)
)

// scriptCalls is the part of the call surface the script uses.
type scriptCalls interface {
	Begin(tx string) error
	Invoke(tx, object string, class sem.Class, member string) error
	Apply(tx, object string, operand sem.Value) error
	Read(tx, object string) (sem.Value, error)
	Sleep(tx string) error
	Awake(tx string) (resumed bool, err error)
	State(tx string) (string, error)
	Commit(tx string) error
	Abort(tx string) error
}

// runScript drives one booking through every per-transaction call, plus an
// abort leg, and returns each step's outcome.
func runScript(c scriptCalls) []string {
	var out []string
	step := func(name string, v any, err error) {
		out = append(out, fmt.Sprintf("%s: %v, %v", name, v, err))
	}
	step("begin", nil, c.Begin("T"))
	step("invoke", nil, c.Invoke("T", "flight", sem.AddSub, ""))
	// Operand 0 leaves the committed seat count alone, so every client of
	// the shared server reads the same value.
	step("apply", nil, c.Apply("T", "flight", sem.Int(0)))
	v, err := c.Read("T", "flight")
	step("read", v, err)
	step("sleep", nil, c.Sleep("T"))
	resumed, err := c.Awake("T")
	step("awake", resumed, err)
	st, err := c.State("T")
	step("state", st, err)
	step("commit", nil, c.Commit("T"))

	step("begin", nil, c.Begin("A"))
	step("invoke", nil, c.Invoke("A", "flight", sem.AddSub, ""))
	step("apply", nil, c.Apply("A", "flight", sem.Int(-1)))
	step("abort", nil, c.Abort("A"))
	st, err = c.State("A")
	step("state", st, err)
	return out
}

// recorder is a TCP proxy in front of the gateway that decodes and keeps
// every request frame a client sends.
type recorder struct {
	ln       net.Listener
	upstream string

	mu    sync.Mutex
	reqs  []wire.Request
	conns []net.Conn
	wg    sync.WaitGroup
}

func newRecorder(t *testing.T, upstream string) *recorder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &recorder{ln: ln, upstream: upstream}
	r.wg.Add(1)
	go r.accept()
	t.Cleanup(r.close)
	return r
}

func (r *recorder) addr() string { return r.ln.Addr().String() }

func (r *recorder) accept() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.upstream)
		if err != nil {
			down.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, down, up)
		r.mu.Unlock()
		r.wg.Add(2)
		go func() {
			defer r.wg.Done()
			defer up.Close()
			for {
				var req wire.Request
				if err := wire.ReadMsg(down, &req); err != nil {
					return
				}
				r.mu.Lock()
				r.reqs = append(r.reqs, req)
				r.mu.Unlock()
				if err := wire.WriteMsg(up, &req); err != nil {
					return
				}
			}
		}()
		go func() {
			defer r.wg.Done()
			defer down.Close()
			_, _ = io.Copy(down, up)
		}()
	}
}

func (r *recorder) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// frames returns the recorded script frames with the fields a transport
// owns (ID, Session, Seq) cleared; session control frames are dropped.
func (r *recorder) frames() []wire.Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []wire.Request
	for _, req := range r.reqs {
		if req.Op == wire.OpGwAttach || req.Op == wire.OpGwDetach {
			continue
		}
		req.ID, req.Session, req.Seq = 0, "", 0
		out = append(out, req)
	}
	return out
}

// TestOneCallSurfaceThreeTransports runs the same script through Conn,
// ResilientConn and SessionClient against one gateway, which serves the
// first two sessionless and the third as a session. Outcomes must match, and
// so must every request frame apart from the fields each transport stamps.
func TestOneCallSurfaceThreeTransports(t *testing.T) {
	st := core.NewMemStore()
	ref := core.StoreRef{Table: "Flight", Key: "AZ123", Column: "FreeTickets"}
	st.Seed(ref, sem.Int(50))
	m := core.NewManager(st)
	t.Cleanup(m.Close)
	if err := m.RegisterAtomicObject("flight", ref); err != nil {
		t.Fatal(err)
	}
	gw := gateway.NewServer(wire.NewManagerBackend(m), gateway.Options{})
	errc := make(chan error, 1)
	go func() { errc <- gw.Serve("127.0.0.1:0") }()
	select {
	case <-gw.Ready():
	case err := <-errc:
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { gw.Close() })

	clients := []struct {
		name string
		dial func(addr string) (scriptCalls, func(), error)
	}{
		{"Conn", func(addr string) (scriptCalls, func(), error) {
			cn, err := wire.Dial(addr)
			if err != nil {
				return nil, nil, err
			}
			return cn, func() { cn.Close() }, nil
		}},
		{"ResilientConn", func(addr string) (scriptCalls, func(), error) {
			rc := wire.DialResilient(addr, wire.ResilientOptions{CallTimeout: 5 * time.Second, Seed: 1})
			return rc, func() { rc.Close() }, nil
		}},
		{"SessionClient", func(addr string) (scriptCalls, func(), error) {
			mc, err := gateway.DialMux(addr)
			if err != nil {
				return nil, nil, err
			}
			sc, _, err := mc.Session("phone", "")
			if err != nil {
				mc.Close()
				return nil, nil, err
			}
			return sc, func() { mc.Close() }, nil
		}},
	}

	var wantOut []string
	var wantFrames []wire.Request
	for i, cl := range clients {
		rec := newRecorder(t, gw.Addr().String())
		c, hangUp, err := cl.dial(rec.addr())
		if err != nil {
			t.Fatalf("%s: dial: %v", cl.name, err)
		}
		out := runScript(c)
		hangUp()
		frames := rec.frames()
		// Forget the finished transactions so the next client can reuse
		// their ids, and with them identical frames.
		if err := forgetAll(gw, "T", "A"); err != nil {
			t.Fatalf("%s: %v", cl.name, err)
		}

		if i == 0 {
			wantOut, wantFrames = out, frames
			want := []string{
				"begin: <nil>, <nil>", "invoke: <nil>, <nil>", "apply: <nil>, <nil>",
				"read: 50, <nil>", "sleep: <nil>, <nil>", "awake: true, <nil>",
				"state: Active, <nil>", "commit: <nil>, <nil>",
				"begin: <nil>, <nil>", "invoke: <nil>, <nil>", "apply: <nil>, <nil>",
				"abort: <nil>, <nil>", "state: Aborted, <nil>",
			}
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("%s outcomes:\n got %q\nwant %q", cl.name, out, want)
			}
			continue
		}
		if !reflect.DeepEqual(out, wantOut) {
			t.Errorf("%s outcomes:\n got %q\nwant %q", cl.name, out, wantOut)
		}
		if len(frames) != len(wantFrames) {
			t.Fatalf("%s sent %d script frames, Conn sent %d", cl.name, len(frames), len(wantFrames))
		}
		for j := range frames {
			if !reflect.DeepEqual(frames[j], wantFrames[j]) {
				t.Errorf("%s frame %d:\n got %+v\nwant %+v", cl.name, j, frames[j], wantFrames[j])
			}
		}
	}
}

// forgetAll sweeps until the engine has forgotten every named terminal
// transaction.
func forgetAll(gw *gateway.Server, txs ...string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		gw.Engine().Sweep(0)
		known := 0
		for _, tx := range txs {
			if gw.Engine().Knows(tx) {
				known++
			}
		}
		if known == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("terminal transactions never swept")
		}
		time.Sleep(time.Millisecond)
	}
}
