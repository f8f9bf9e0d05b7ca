package gateway

import (
	"bufio"
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"preserial/internal/sem"
	"preserial/internal/wire"
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

// TestMuxCallOneWrite: a multiplexed call leaves in one Write.
func TestMuxCallOneWrite(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	cc := &countConn{Conn: a}
	m := &MuxConn{c: cc, calls: make(map[uint64]chan *wire.Response), readDone: make(chan struct{})}
	go m.readLoop()
	defer m.Close()
	go func() {
		br := bufio.NewReader(b)
		for {
			var req wire.Request
			if wire.ReadMsg(br, &req) != nil {
				return
			}
			if wire.WriteMsg(b, &wire.Response{ID: req.ID, OK: true}) != nil {
				return
			}
		}
	}()
	for i := 1; i <= 3; i++ {
		if _, err := m.Call(&wire.Request{Op: wire.OpPing}); err != nil {
			t.Fatal(err)
		}
		if n := cc.writes.Load(); n != int64(i) {
			t.Fatalf("%d writes after %d calls", n, i)
		}
	}
}

// readStub is a backend that answers one-shot snapshot reads and nothing
// else: a round trip over it costs the transport and the gateway alone.
type readStub struct{ wire.Backend }

func (readStub) BeginSnapshot(string) (wire.Session, error) {
	return nil, errors.New("readStub: no snapshot transactions")
}

func (readStub) SnapshotRead(string, string) (wire.Value, error) {
	return wire.FromSem(sem.Int(1)), nil
}

// BenchmarkMuxRoundTrip measures one one-shot snapshot read through a
// gateway session over loopback TCP.
func BenchmarkMuxRoundTrip(b *testing.B) {
	srv := NewServer(readStub{}, Options{})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve("127.0.0.1:0") }()
	select {
	case <-srv.Ready():
	case err := <-errc:
		b.Fatal(err)
	}
	defer srv.Close()
	mc, err := DialMux(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer mc.Close()
	sc, _, err := mc.Session("bench", "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.SnapshotRead("Flight/AZ0", ""); err != nil {
			b.Fatal(err)
		}
	}
}
