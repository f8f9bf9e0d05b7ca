package gateway

import (
	"fmt"
	"sync"
	"testing"

	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// TestWireSeriesCountGatewayFrames: the gateway serves every frame through
// wire.Server's connection loop, so the wire_* series count session frames,
// session control and frames without a session alike.
func TestWireSeriesCountGatewayFrames(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := newTestGateway(t, Options{Obs: reg})

	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	sc, _, err := mc.Session("phone-1", "")
	if err != nil {
		t.Fatal(err)
	}
	sent++
	for _, step := range []func() error{
		func() error { return sc.Begin("t1") },
		func() error { return sc.Invoke("t1", "flight", sem.AddSub, "") },
		func() error { return sc.Apply("t1", "flight", sem.Int(-1)) },
		func() error { return sc.Commit("t1") },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if _, _, err := mc.Session("phone-2", ""); err != nil {
		t.Fatal(err)
	}
	sent++
	if err := mc.Detach("phone-2"); err != nil {
		t.Fatal(err)
	}
	sent++

	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.Ping(); err != nil {
		t.Fatal(err)
	}
	sent++
	cn.Close()
	mc.Close()
	srv.Close()

	snap := reg.Snapshot()
	for _, name := range []string{obs.NameWireFramesIn, obs.NameWireFramesOut} {
		if got := snap[name]; got != uint64(sent) {
			t.Errorf("%s = %d, want %d", name, got, sent)
		}
	}
	if got := snap[obs.WithLabel(obs.NameWireRequests, "op", string(wire.OpGwAttach))]; got != 2 {
		t.Errorf("wire_requests_total{op=gw.attach} = %d, want 2", got)
	}
	if got := snap[obs.NameWireRequestSeconds+"_count"]; got != uint64(sent) {
		t.Errorf("wire_request_seconds_count = %d, want %d", got, sent)
	}
	if got, ok := snap[obs.NameWireConnectionsActive]; !ok || got != 0 {
		t.Errorf("wire_connections_active = %d (registered %v), want 0 after close", got, ok)
	}
	if got := snap[obs.NameWireConnections]; got != 2 {
		t.Errorf("wire_connections_total = %d, want 2", got)
	}
}

// TestInlineAndLaneRepliesShareOneConn: frames without a session are
// answered inline by the reader while lane workers answer session frames on
// the same connection. The per-connection write lock keeps every response
// frame whole, and each finds its caller by correlation id.
func TestInlineAndLaneRepliesShareOneConn(t *testing.T) {
	_, addr := newTestGateway(t, Options{})
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sc, _, err := mc.Session(fmt.Sprintf("s%d", w), "")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tx := fmt.Sprintf("t%d-%d", w, r)
				if err := sc.Begin(tx); err != nil {
					t.Errorf("begin %s: %v", tx, err)
					return
				}
				if err := sc.Abort(tx); err != nil {
					t.Errorf("abort %s: %v", tx, err)
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := mc.Call(&wire.Request{Op: wire.OpPing}); err != nil {
					t.Errorf("ping: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
