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

// Server exposes a core.Manager (or any Backend) over TCP. It is the one
// connection loop of the middleware: it listens, accepts, reads request
// frames, writes responses, counts every frame in the wire_* series and
// runs the Close/Drain lifecycle. Request execution — the tx-id → Session
// registry, exactly-once replay, ownership and disconnection semantics —
// lives in Engine. Each frame is served inline, in order, on its
// connection's Owner unless the server's SessionLayer claims it; the
// gateway (internal/gateway) is that layer, multiplexing many logical
// sessions over one connection. Transactions whose connection vanishes are
// put to sleep, not aborted.
type Server struct {
	e       *Engine
	layer   SessionLayer // nil: every frame is served inline
	ln      net.Listener
	log     *log.Logger
	metrics *serverMetrics // nil when observability is off

	ready     chan struct{} // closed once the listener is bound
	readyOnce sync.Once

	mu     sync.Mutex
	closed bool
	conns  map[*ServerConn]bool
	wg     sync.WaitGroup
}

// SessionLayer is a front end's hook into the server's connection loop.
type SessionLayer interface {
	// Frame offers req, read from c, to the layer. A layer that claims the
	// frame answers it with c.Reply, now or later, and returns true; false
	// lets the server serve it inline on c's owner. Frame runs on c's
	// reader goroutine, so the calls for one connection never overlap.
	Frame(c *ServerConn, req *Request) bool
	// Hangup reports that c closed. No Frame call for c follows.
	Hangup(c *ServerConn)
}

// ServerConn is one accepted client connection.
type ServerConn struct {
	// Layer is the session layer's state for this connection; the server
	// never touches it.
	Layer any

	s     *Server
	nc    net.Conn
	owner *Owner     // drives the frames served inline
	wmu   sync.Mutex // serializes response frames: a layer answers out of order
}

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
	return NewSessionServer(b, opts, nil)
}

// NewSessionServer is NewBackendServer with a session layer that is
// offered every frame before the server serves it.
func NewSessionServer(b Backend, opts ServerOptions, layer SessionLayer) *Server {
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
		layer: layer,
		log:   lg,
		ready: make(chan struct{}),
		conns: make(map[*ServerConn]bool),
	}
	if opts.Obs != nil {
		s.metrics = newServerMetrics(opts.Obs, func() float64 {
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
		c := &ServerConn{s: s, nc: conn, owner: NewOwner(conn)}
		s.mu.Lock()
		s.conns[c] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(c)
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
		c.nc.Close()
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
	if s.closed {
		s.mu.Unlock()
		return DrainReport{CommitsFlushed: true}
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	rep := s.e.Drain(timeout)

	s.mu.Lock()
	for c := range s.conns {
		c.nc.Close()
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

// handle runs one connection's read loop.
func (s *Server) handle(c *ServerConn) {
	defer func() {
		c.nc.Close()
		if s.layer != nil {
			s.layer.Hangup(c)
		}
		s.e.DisconnectOwner(c.owner)
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	m := s.metrics
	if m != nil {
		m.connsOpen.Inc()
	}

	for {
		req := &Request{} // fresh per frame: a session layer may queue it
		if err := ReadMsg(c.nc, req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.log.Printf("wire: read from %s: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		if m != nil {
			req.read = time.Now()
			m.framesIn.Inc()
			m.countOp(req.Op)
		}
		if s.layer != nil && s.layer.Frame(c, req) {
			continue
		}
		c.Reply(req, s.e.Serve(req, c.owner))
	}
}

// Reply answers req on this connection: it echoes req's correlation ID,
// records the request in the wire_* series and writes the response frame
// under the connection's write lock. A failed write hangs the connection
// up; a client that retries gets the answer from the exactly-once window.
func (c *ServerConn) Reply(req *Request, resp *Response) {
	if resp.ID != req.ID {
		// Copy rather than stamp: the engine may share resp with its
		// replay window, which other connections read.
		r := *resp
		r.ID = req.ID
		resp = &r
	}
	m := c.s.metrics
	if m != nil {
		m.observe(req.read, resp.OK)
	}
	c.wmu.Lock()
	err := WriteMsg(c.nc, resp)
	c.wmu.Unlock()
	if err != nil {
		c.s.log.Printf("wire: write to %s: %v", c.nc.RemoteAddr(), err)
		c.nc.Close()
		return
	}
	if m != nil {
		m.framesOut.Inc()
	}
}
