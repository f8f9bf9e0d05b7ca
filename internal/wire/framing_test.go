package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countConn counts the Write calls made on a connection.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countWriter counts Write calls.
type countWriter struct {
	bytes.Buffer
	writes int
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestOneWritePerFrame: WriteMsg, a server's reply and a client's request
// each leave in one Write, and the bytes are [u32 BE length][JSON] as
// before.
func TestOneWritePerFrame(t *testing.T) {
	req := &Request{Op: OpInvoke, Tx: "t1", Object: "X", Class: "add/sub"}
	var w countWriter
	if err := WriteMsg(&w, req); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteMsg: %d writes, want 1", w.writes)
	}
	payload, _ := json.Marshal(req)
	want := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	if want = append(want, payload...); !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("frame bytes changed:\n got %q\nwant %q", w.Bytes(), want)
	}

	// ServerConn.Reply.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	srv := NewBackendServer(nil, ServerOptions{})
	sc := &ServerConn{s: srv, nc: &countConn{Conn: a}}
	got := make(chan Response, 1)
	go func() {
		var resp Response
		_ = ReadMsg(b, &resp)
		got <- resp
	}()
	sc.Reply(&Request{ID: 7, Op: OpPing}, &Response{OK: true})
	if resp := <-got; resp.ID != 7 || !resp.OK {
		t.Fatalf("reply = %+v", resp)
	}
	if n := sc.nc.(*countConn).writes.Load(); n != 1 {
		t.Fatalf("Reply: %d writes, want 1", n)
	}

	// Conn.call.
	cc := &countConn{Conn: b}
	cn := &Conn{c: cc, r: bufio.NewReader(cc)}
	cn.Calls = cn.call
	go func() {
		var r Request
		if ReadMsg(a, &r) == nil {
			_ = WriteMsg(a, &Response{OK: true})
		}
	}()
	if err := cn.Ping(); err != nil {
		t.Fatal(err)
	}
	if n := cc.writes.Load(); n != 1 {
		t.Fatalf("Conn.call: %d writes, want 1", n)
	}
}

// TestServerPipelinedFrames: requests that arrive together in one segment
// are all read from the connection's buffer and answered in order.
func TestServerPipelinedFrames(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	const n = 50
	var batch bytes.Buffer
	for i := 1; i <= n; i++ {
		req := &Request{ID: uint64(i), Op: OpPing}
		if i%10 == 0 {
			req = &Request{ID: uint64(i), Op: OpState, Tx: "nobody"}
		}
		if err := WriteMsg(&batch, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cn.c.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		var resp Response
		if err := ReadMsg(cn.r, &resp); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.ID != uint64(i) || resp.OK == (i%10 == 0) {
			t.Fatalf("response %d = %+v", i, resp)
		}
	}
}

// TestServerAnswersSplitFrame: a peer that sends the header and the payload
// in two writes, as this package once did, still gets its answer.
func TestServerAnswersSplitFrame(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload, _ := json.Marshal(&Request{ID: 3, Op: OpPing})
	if _, err := c.Write(binary.BigEndian.AppendUint32(nil, uint32(len(payload)))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the server read the header alone
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadMsg(c, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 3 || !resp.OK {
		t.Fatalf("response = %+v", resp)
	}
}

// TestMaxFrameRoundTrip: a frame of exactly MaxFrame, larger than the
// reader's buffer, crosses a buffered connection intact, and the frame
// after it is read from the right position.
func TestMaxFrameRoundTrip(t *testing.T) {
	base, _ := json.Marshal(&Request{Op: OpState, Tx: "x"})
	big := &Request{Op: OpState, Tx: strings.Repeat("x", MaxFrame-len(base)+1)}
	if p, _ := json.Marshal(big); len(p) != MaxFrame {
		t.Fatalf("built a %d-byte frame, want %d", len(p), MaxFrame)
	}
	small := &Request{Op: OpPing, ID: 2}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		err := WriteMsg(a, big)
		if err == nil {
			err = WriteMsg(a, small)
		}
		errc <- err
	}()
	br := bufio.NewReader(b)
	for _, want := range []*Request{big, small} {
		var got Request
		if err := ReadMsg(br, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("frame of op %s changed in transit", want.Op)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
