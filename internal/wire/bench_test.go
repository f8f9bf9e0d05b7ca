package wire

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/sem"
)

func BenchmarkFrameRoundTrip(b *testing.B) {
	req := Request{Op: OpInvoke, Tx: "tx-0001", Object: "Flight/AZ0", Class: "add/sub"}
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMsg(&buf, &req); err != nil {
			b.Fatal(err)
		}
		var got Request
		if err := ReadMsg(&buf, &got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerBookingRoundTrip measures a full begin/invoke/apply/commit
// conversation over a real TCP connection.
func BenchmarkServerBookingRoundTrip(b *testing.B) {
	store := core.NewMemStore()
	ref := core.StoreRef{Table: "T", Key: "X", Column: "v"}
	store.Seed(ref, sem.Int(1_000_000))
	m := core.NewManager(store)
	if err := m.RegisterAtomicObject("X", ref); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(m, ServerOptions{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve("127.0.0.1:0")
	}()
	select {
	case <-srv.Ready():
	case <-time.After(5 * time.Second):
		b.Fatal("server never bound")
	}
	defer func() {
		srv.Close()
		wg.Wait()
	}()
	cn, err := Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cn.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := fmt.Sprintf("t%d", i)
		if err := cn.Begin(tx); err != nil {
			b.Fatal(err)
		}
		if err := cn.Invoke(tx, "X", sem.AddSub, ""); err != nil {
			b.Fatal(err)
		}
		if err := cn.Apply(tx, "X", sem.Int(-1)); err != nil {
			b.Fatal(err)
		}
		if err := cn.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
}

// readStub is a backend that answers one-shot snapshot reads and nothing
// else: a round trip over it costs the transport and the engine alone.
type readStub struct{ Backend }

func (readStub) BeginSnapshot(string) (Session, error) {
	return nil, errors.New("readStub: no snapshot transactions")
}

func (readStub) SnapshotRead(string, string) (Value, error) { return FromSem(sem.Int(1)), nil }

// BenchmarkConnRoundTrip measures one one-shot snapshot read from a Conn
// to a Server over loopback TCP.
func BenchmarkConnRoundTrip(b *testing.B) {
	srv := NewBackendServer(readStub{}, ServerOptions{})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve("127.0.0.1:0") }()
	select {
	case <-srv.Ready():
	case err := <-errc:
		b.Fatal(err)
	}
	defer srv.Close()
	cn, err := Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cn.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cn.SnapshotRead("Flight/AZ0", ""); err != nil {
			b.Fatal(err)
		}
	}
}
