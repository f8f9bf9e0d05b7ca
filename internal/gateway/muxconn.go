package gateway

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"preserial/internal/wire"
)

// MuxConn is the client side of a multiplexed gateway connection: many
// logical sessions (and any number of in-flight requests) share one TCP
// connection. Every request is stamped with a correlation ID; a reader
// goroutine routes responses back to their callers, so calls from
// different goroutines interleave freely. Compare wire.Conn, which is one
// synchronous session per connection.
type MuxConn struct {
	c       net.Conn
	timeout time.Duration

	wmu    sync.Mutex // serializes request frames
	nextID atomic.Uint64

	readDone chan struct{} // closed when readLoop exits; Close joins on it

	mu    sync.Mutex
	calls map[uint64]chan *wire.Response // in-flight, by correlation id
	err   error                          // set once the reader dies; conn unusable
}

// DialMux connects to a gateway with the default call timeout.
func DialMux(addr string) (*MuxConn, error) {
	return DialMuxTimeout(addr, 10*time.Second, wire.DefaultCallTimeout)
}

// DialMuxTimeout connects with explicit timeouts. callTimeout bounds each
// request/response round trip; zero waits forever.
func DialMuxTimeout(addr string, dialTimeout, callTimeout time.Duration) (*MuxConn, error) {
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	m := &MuxConn{c: c, timeout: callTimeout, calls: make(map[uint64]chan *wire.Response),
		readDone: make(chan struct{})}
	go m.readLoop()
	return m, nil
}

// Close hangs up and waits for the reader goroutine to drain: closing the
// conn fails the pending read, readLoop fails the in-flight callers and
// exits. Sessions attached on this connection get parked by the gateway
// and can be resumed from a new MuxConn.
func (m *MuxConn) Close() error {
	err := m.c.Close()
	<-m.readDone
	return err
}

// readLoop routes response frames to their waiting callers.
func (m *MuxConn) readLoop() {
	defer close(m.readDone)
	br := bufio.NewReader(m.c)
	for {
		var resp wire.Response
		if err := wire.ReadMsg(br, &resp); err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		ch := m.calls[resp.ID]
		delete(m.calls, resp.ID)
		m.mu.Unlock()
		if ch != nil {
			ch <- &resp
		}
	}
}

// fail marks the connection dead and wakes every in-flight caller.
func (m *MuxConn) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = err
	}
	for id, ch := range m.calls {
		delete(m.calls, id)
		close(ch) // closed channel = transport failure, not a response
	}
}

// Call performs one round trip. It overwrites req.ID with a fresh
// correlation id; everything else (Session, Tx, Seq, …) is the caller's.
// Safe for concurrent use. An admission rejection comes back as a
// *wire.RetryAfterError (match errors.Is(err, wire.ErrRetryAfter)).
func (m *MuxConn) Call(req *wire.Request) (*wire.Response, error) {
	id := m.nextID.Add(1)
	req.ID = id
	ch := make(chan *wire.Response, 1)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	m.calls[id] = ch
	m.mu.Unlock()

	m.wmu.Lock()
	err := wire.WriteMsg(m.c, req)
	m.wmu.Unlock()
	if err != nil {
		m.mu.Lock()
		delete(m.calls, id)
		m.mu.Unlock()
		return nil, err
	}

	var timeoutC <-chan time.Time
	if m.timeout > 0 {
		t := time.NewTimer(m.timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			m.mu.Lock()
			err := m.err
			m.mu.Unlock()
			if err == nil {
				err = wire.ErrPeerClosed
			}
			return nil, fmt.Errorf("%w: %v", wire.ErrPeerClosed, err)
		}
		return resp, wire.AsError(resp)
	case <-timeoutC:
		m.mu.Lock()
		delete(m.calls, id) // a late response for this id is dropped
		m.mu.Unlock()
		return nil, wire.ErrCallTimeout
	}
}

// Attach creates or resumes the logical session id under tenant. On a
// resume, owned lists the transactions the session still holds (asleep if
// the session was parked) for the caller to re-awaken.
func (m *MuxConn) Attach(id, tenant string) (resumed bool, owned []string, err error) {
	resp, err := m.Call(&wire.Request{Op: wire.OpGwAttach, Session: id, Tenant: tenant})
	if err != nil {
		return false, nil, err
	}
	return resp.Resumed, resp.OwnedTxs, nil
}

// Detach parks the session: its live transactions sleep server-side and a
// later Attach (from any connection) resumes them.
func (m *MuxConn) Detach(id string) error {
	_, err := m.Call(&wire.Request{Op: wire.OpGwDetach, Session: id})
	return err
}

// Session attaches session id and returns its typed client.
func (m *MuxConn) Session(id, tenant string) (*SessionClient, bool, error) {
	resumed, _, err := m.Attach(id, tenant)
	if err != nil {
		return nil, false, err
	}
	return newSessionClient(m, id, make(map[string]uint64)), resumed, nil
}

// SessionClient is one logical session over a MuxConn. It carries the
// protocol's typed calls (wire.Calls) over a round trip that stamps each
// request with its session and assigns per-transaction sequence numbers,
// so mutating requests are protected by the server's exactly-once window.
// Safe for concurrent use, though per-transaction ordering is only
// meaningful when each transaction is driven by one goroutine at a time.
type SessionClient struct {
	wire.Calls
	m  *MuxConn
	id string

	mu   sync.Mutex
	seqs map[string]uint64 // next seq per transaction
}

// newSessionClient binds session id on m, resuming the given sequence
// counters.
func newSessionClient(m *MuxConn, id string, seqs map[string]uint64) *SessionClient {
	s := &SessionClient{m: m, id: id, seqs: seqs}
	s.Calls = s.call
	return s
}

// ID returns the logical session id.
func (s *SessionClient) ID() string { return s.id }

// call stamps session and seq, then round-trips.
func (s *SessionClient) call(req *wire.Request) (*wire.Response, error) {
	req.Session = s.id
	if req.Seq == 0 && req.Tx != "" && req.Op.Mutating() {
		s.mu.Lock()
		s.seqs[req.Tx]++
		req.Seq = s.seqs[req.Tx]
		s.mu.Unlock()
	}
	return s.m.Call(req)
}

// Seq returns the last sequence number assigned for tx (0 if none) — a
// reconnecting caller replays its unanswered request with the same seq.
func (s *SessionClient) Seq(tx string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seqs[tx]
}

// SetSeq primes the sequence counter for tx, for callers resuming a
// session whose transactions were begun by an earlier SessionClient.
func (s *SessionClient) SetSeq(tx string, seq uint64) {
	s.mu.Lock()
	s.seqs[tx] = seq
	s.mu.Unlock()
}
