package wire

import (
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"preserial/internal/core"
	"preserial/internal/obs"
)

// Server exposes a core.Manager (or any Backend) over TCP with the classic
// one-goroutine-per-connection front end. Request execution — the tx-id →
// Session registry, exactly-once replay, ownership and disconnection
// semantics — lives in Engine; the server owns the listener, framing, and
// connection lifecycle. Transactions whose connection vanishes are put to
// sleep, not aborted. For a front end that multiplexes many logical
// sessions over few connections, see internal/gateway.
type Server struct {
	e       *Engine
	ln      net.Listener
	log     *log.Logger
	obs     *obs.Registry  // nil when observability is off
	metrics *serverMetrics // nil when observability is off

	ready     chan struct{} // closed once the listener is bound
	readyOnce sync.Once

	mu       sync.Mutex
	closed   bool
	draining bool
	conns    map[net.Conn]bool
	wg       sync.WaitGroup
}

// Manager is the narrow surface the server needs from core.Manager — an
// alias kept for readability.
type Manager = core.Manager

// ServerOptions configures Serve.
type ServerOptions struct {
	// Logger receives connection-level events; nil silences them.
	Logger *log.Logger
	// InvokeTimeout bounds a blocking invoke; zero means no limit.
	InvokeTimeout time.Duration
	// Retention is how long terminal (committed/aborted) transactions stay
	// queryable before the server forgets them and frees their state.
	// Zero means 10 minutes; negative retains forever.
	Retention time.Duration
	// Obs, when non-nil, receives the wire_* metric set and its live
	// snapshot is merged into every stats response.
	Obs *obs.Registry
}

// NewServer wraps a single core.Manager — the classic deployment. Call
// Serve to start accepting.
func NewServer(m *core.Manager, opts ServerOptions) *Server {
	return NewBackendServer(managerBackend{m}, opts)
}

// NewBackendServer wraps any Backend (a shard cluster, a test double). The
// protocol, disconnection semantics, dedup replay and sweeping are
// identical to the single-manager deployment.
func NewBackendServer(b Backend, opts ServerOptions) *Server {
	lg := opts.Logger
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	s := &Server{
		e: NewEngine(b, EngineOptions{
			Logger:        lg,
			InvokeTimeout: opts.InvokeTimeout,
			Retention:     opts.Retention,
			Obs:           opts.Obs,
		}),
		log:   lg,
		obs:   opts.Obs,
		ready: make(chan struct{}),
		conns: make(map[net.Conn]bool),
	}
	if s.obs != nil {
		s.metrics = newServerMetrics(s.obs, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.conns))
		})
	}
	return s
}

// Engine returns the request engine, shared surface with internal/gateway.
func (s *Server) Engine() *Engine { return s.e }

// Serve listens on addr and handles connections until Close. It returns
// the bound address via Addr once listening.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.readyOnce.Do(func() { close(s.ready) })
	s.e.StartSweep()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Addr returns the listener address (nil before Serve binds).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Ready returns a channel closed once Serve has bound its listener (at
// which point Addr is non-nil). If Serve fails before binding, the channel
// never closes — select on it together with Serve's error.
func (s *Server) Ready() <-chan struct{} { return s.ready }

// Close stops the listener and hangs up every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.e.Stop() // unblock handlers parked in invoke/commit waits
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Drain shuts the server down gracefully — the SIGTERM path of gtmd. It
// stops accepting, cancels blocking invokes/commits so no handler is stuck,
// puts every Active or Waiting transaction to sleep (instead of letting it
// die with the process: a restarted server's clients re-attach and awaken),
// waits up to timeout for in-flight commits to resolve, then hangs up.
// Drain leaves the Manager and its store untouched so the caller can flush
// the WAL and exit cleanly.
func (s *Server) Drain(timeout time.Duration) DrainReport {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return DrainReport{CommitsFlushed: true}
	}
	s.draining = true
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	rep := s.e.Drain(timeout)

	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return rep
}

// Sweep forgets every terminal transaction that finished more than
// olderThan ago, freeing its registry entry and client handle. It returns
// the ids removed.
func (s *Server) Sweep(olderThan time.Duration) []string {
	return s.e.Sweep(olderThan)
}

// handle runs one connection's request loop.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	owner := NewOwner(conn)
	defer s.e.DisconnectOwner(owner)
	if s.metrics != nil {
		s.metrics.connsOpen.Inc()
	}

	for {
		var req Request
		if err := ReadMsg(conn, &req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.log.Printf("wire: read from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		start := time.Now()
		if s.metrics != nil {
			s.metrics.framesIn.Inc()
			s.metrics.countOp(req.Op)
		}
		resp := s.e.Serve(&req, owner)
		if s.metrics != nil {
			s.metrics.observe(start, resp.OK)
		}
		if err := WriteMsg(conn, resp); err != nil {
			s.log.Printf("wire: write to %s: %v", conn.RemoteAddr(), err)
			return
		}
		if s.metrics != nil {
			s.metrics.framesOut.Inc()
		}
	}
}
