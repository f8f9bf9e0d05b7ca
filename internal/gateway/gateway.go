// Package gateway is the million-client front tier of the middleware: it
// multiplexes many logical GTM sessions over few TCP connections, so the
// per-client cost of the paper's long-running mobile transactions is bytes,
// not a connection and a goroutine.
//
// Where wire.Server binds one client to one connection (and one handler
// goroutine), the gateway speaks the same protocol with three extensions:
// gw.attach/gw.detach create, resume and park logical sessions; requests
// carrying a correlation ID may be answered out of order; and admission
// control may shed a request with an explicit retry-after hint instead of
// queueing it unboundedly. Request execution is the same wire.Engine a
// plain server uses — exactly-once replay, ownership and disconnection
// semantics included — so a client that reconnects through the gateway
// gets identical semantics to one that reconnects to a plain server.
//
// The interesting state is the parked-session table: a session whose
// client detached (or whose connection died) keeps only a small struct —
// its id, tenant and the set of transactions it owns. Its live
// transactions sleep in the GTM, exactly the paper's disconnection
// handling. See docs/GATEWAY.md.
package gateway

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"preserial/internal/obs"
	"preserial/internal/wire"
)

// Tuning defaults. docs/GATEWAY.md explains how to size them.
const (
	DefaultLanes            = 8
	DefaultLaneDepth        = 256
	DefaultLaneWorkers      = 8
	DefaultRetryAfter       = 100 * time.Millisecond
	DefaultSessionRetention = 30 * time.Minute
	maxRetryAfterHint       = 30 * time.Second
)

// Options configures NewServer.
type Options struct {
	// Logger receives gateway events; nil silences them.
	Logger *log.Logger
	// Obs, when non-nil, receives the gw_* metric family (and the engine's
	// replay/drain counters).
	Obs *obs.Registry

	// Engine knobs, same semantics as wire.ServerOptions.
	InvokeTimeout time.Duration
	Retention     time.Duration

	// Lanes is the number of dispatch lanes; requests route to a lane by
	// the owning shard (sharded backends) or by transaction-id hash.
	// Zero means DefaultLanes.
	Lanes int
	// LaneDepth bounds each lane's queue; a full lane sheds with
	// retry-after instead of queueing. Zero means DefaultLaneDepth.
	LaneDepth int
	// LaneWorkers is how many requests one lane executes concurrently
	// (a blocking invoke occupies a worker until granted — set
	// InvokeTimeout in gateway deployments). Zero means DefaultLaneWorkers.
	LaneWorkers int

	// MaxSessions caps the session table (bound + parked). Zero: unlimited.
	MaxSessions int

	// Rate/Burst is the global admission token bucket, charged one token
	// per transaction begin. Rate zero: unlimited.
	Rate, Burst float64
	// TenantRate/TenantBurst is the per-tenant bucket, charged alongside
	// the global one. TenantRate zero: no per-tenant limiting.
	TenantRate, TenantBurst float64

	// SessionRetention reaps parked sessions idle longer than this.
	// Zero means DefaultSessionRetention; negative retains forever.
	SessionRetention time.Duration

	// Now supplies the time used for admission refill, session lastSeen
	// stamps and parked-session expiry. Nil means time.Now; tests inject a
	// deterministic clock to drive the retention reaper.
	Now func() time.Time
}

// laneItem is one queued session request.
type laneItem struct {
	req  *wire.Request
	sess *session
	conn *gwConn
	enq  time.Time
}

// lane is one bounded dispatch queue plus its worker pool.
type lane struct{ q chan laneItem }

// Server is the gateway front end. Create with NewServer, start with Serve.
type Server struct {
	e    *wire.Engine
	log  *log.Logger
	m    *metrics // nil when observability is off
	opts Options

	global  *tokenBucket // nil: unlimited
	tenants *tenantLimiter
	lanes   []*lane
	// routeObj maps an object id to its shard for lane selection; nil on
	// non-sharded backends.
	routeObj func(string) (int, error)

	ready     chan struct{} // closed once the listener is bound
	readyOnce sync.Once

	mu          sync.Mutex
	closed      bool
	draining    bool
	ln          net.Listener
	conns       map[*gwConn]bool
	sessions    map[string]*session
	parked      int   // sessions with conn == nil
	parkedBytes int64 // estimated footprint of parked sessions
	stopReap    chan struct{}

	wg     sync.WaitGroup // connection readers
	laneWG sync.WaitGroup // lane workers
}

// NewServer builds a gateway over any wire.Backend (a core manager via
// wire.NewManagerBackend, a shard cluster, a test double).
func NewServer(b wire.Backend, opts Options) *Server {
	lg := opts.Logger
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	if opts.Lanes <= 0 {
		opts.Lanes = DefaultLanes
	}
	if opts.LaneDepth <= 0 {
		opts.LaneDepth = DefaultLaneDepth
	}
	if opts.LaneWorkers <= 0 {
		opts.LaneWorkers = DefaultLaneWorkers
	}
	if opts.SessionRetention == 0 {
		opts.SessionRetention = DefaultSessionRetention
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Server{
		e: wire.NewEngine(b, wire.EngineOptions{
			Logger:        lg,
			InvokeTimeout: opts.InvokeTimeout,
			Retention:     opts.Retention,
			Obs:           opts.Obs,
		}),
		log:      lg,
		opts:     opts,
		tenants:  newTenantLimiter(opts.TenantRate, opts.TenantBurst),
		ready:    make(chan struct{}),
		conns:    make(map[*gwConn]bool),
		sessions: make(map[string]*session),
	}
	if opts.Rate > 0 {
		s.global = newTokenBucket(opts.Rate, opts.Burst, opts.Now())
	}
	if sb, ok := b.(wire.ShardBackend); ok {
		s.routeObj = sb.Route
	}
	s.lanes = make([]*lane, opts.Lanes)
	for i := range s.lanes {
		s.lanes[i] = &lane{q: make(chan laneItem, opts.LaneDepth)}
	}
	if opts.Obs != nil {
		s.m = newMetrics(opts.Obs, s)
	}
	return s
}

// Engine returns the request engine, shared surface with wire.Server.
func (s *Server) Engine() *wire.Engine { return s.e }

// now reads the configured clock.
func (s *Server) now() time.Time { return s.opts.Now() }

// Serve listens on addr and handles connections until Close or Drain.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("gateway: server closed")
	}
	s.ln = ln
	s.stopReap = make(chan struct{})
	s.mu.Unlock()
	s.readyOnce.Do(func() { close(s.ready) })
	s.e.StartSweep()
	for _, l := range s.lanes {
		for i := 0; i < s.opts.LaneWorkers; i++ {
			s.laneWG.Add(1)
			go s.laneWorker(l)
		}
	}
	if s.opts.SessionRetention > 0 {
		go s.reapLoop(s.stopReap)
	}
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
		c := &gwConn{s: s, c: conn, legacy: wire.NewOwner(conn), bound: make(map[string]*session)}
		s.mu.Lock()
		s.conns[c] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.readLoop()
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

// Ready returns a channel closed once Serve has bound its listener.
func (s *Server) Ready() <-chan struct{} { return s.ready }

// Close stops the listener, hangs up every connection and stops the lane
// workers. Parked sessions' transactions are already asleep; bound
// sessions' go to sleep as their connections die.
func (s *Server) Close() error {
	err := s.shutdown(func() {})
	return err
}

// Drain shuts down gracefully: stop accepting, cancel blocking waits, put
// every live transaction to sleep, wait out in-flight commits, then hang
// up. The SIGTERM path of gtmd -gateway.
func (s *Server) Drain(timeout time.Duration) wire.DrainReport {
	var rep wire.DrainReport
	rep.CommitsFlushed = true
	s.shutdown(func() { rep = s.e.Drain(timeout) })
	return rep
}

// shutdown runs the common teardown with mid (the drain step, or nothing)
// between listener close and connection teardown.
func (s *Server) shutdown(mid func()) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	stopReap := s.stopReap
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	if stopReap != nil {
		close(stopReap)
	}
	mid()
	s.e.Stop() // unblock lane workers parked in invoke/commit waits
	s.mu.Lock()
	for c := range s.conns {
		c.c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait() // readers gone: no more lane enqueues
	for _, l := range s.lanes {
		close(l.q)
	}
	s.laneWG.Wait()
	return err
}

// SessionCounts reports the session-table population.
func (s *Server) SessionCounts() (bound, parked int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions) - s.parked, s.parked
}

// ParkedBytes estimates the heap bytes held by parked sessions.
func (s *Server) ParkedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parkedBytes
}

// ExpireParked drops parked sessions idle longer than olderThan and
// returns how many it reaped. The retention loop calls it periodically;
// operators and tests may call it directly.
func (s *Server) ExpireParked(olderThan time.Duration) int {
	cutoff := s.now().Add(-olderThan)
	s.mu.Lock()
	var n int
	for id, sess := range s.sessions {
		if sess.conn == nil && sess.lastSeen.Before(cutoff) {
			delete(s.sessions, id)
			s.parked--
			s.parkedBytes -= sess.chargedBytes
			n++
		}
	}
	s.mu.Unlock()
	if n > 0 {
		if s.m != nil {
			s.m.expired.Add(uint64(n))
		}
		s.log.Printf("gateway: expired %d parked sessions", n)
	}
	return n
}

// reapLoop periodically expires idle parked sessions.
func (s *Server) reapLoop(stop chan struct{}) {
	every := s.opts.SessionRetention / 4
	if every < time.Second {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.ExpireParked(s.opts.SessionRetention)
		}
	}
}

// laneWorker executes queued requests until the lane closes.
func (s *Server) laneWorker(l *lane) {
	defer s.laneWG.Done()
	for it := range l.q {
		resp := s.e.Serve(it.req, it.sess.owner)
		resp.ID = it.req.ID
		if s.m != nil {
			s.m.dispatches.Inc()
			s.m.dispatchSeconds.Observe(s.now().Sub(it.enq))
		}
		// The session may have migrated to another connection while this
		// request was queued; answer on the connection it arrived on. If
		// that connection died, the response is dropped — the client's
		// retry replays it from the exactly-once window.
		it.conn.writeResp(resp)
	}
}

// route picks the dispatch lane: the owning shard when the backend is
// sharded and the request names an object (so one shard's slow lane cannot
// stall the others), otherwise a hash of the transaction id.
func (s *Server) route(req *wire.Request) int {
	if s.routeObj != nil && req.Object != "" {
		if idx, err := s.routeObj(req.Object); err == nil {
			return idx % len(s.lanes)
		}
	}
	h := fnv.New32a()
	if req.Tx != "" {
		io.WriteString(h, req.Tx)
	} else {
		io.WriteString(h, req.Session)
	}
	return int(h.Sum32()) % len(s.lanes)
}

// handleRequest classifies one decoded request. Session control and legacy
// (no-session) requests run inline on the reader goroutine — the latter
// reproduces a plain server's strict in-order discipline for unmodified
// clients. Session requests go through admission control and the lanes.
func (s *Server) handleRequest(c *gwConn, req *wire.Request) {
	switch {
	case req.Op == wire.OpGwAttach:
		c.writeResp(s.attach(c, req))
	case req.Op == wire.OpGwDetach:
		c.writeResp(s.detach(c, req))
	case req.Session == "":
		resp := s.e.Serve(req, c.legacy)
		resp.ID = req.ID
		c.writeResp(resp)
	default:
		s.dispatchSession(c, req)
	}
}

// dispatchSession admits and enqueues one session request.
func (s *Server) dispatchSession(c *gwConn, req *wire.Request) {
	c.mu.Lock()
	sess := c.bound[req.Session]
	c.mu.Unlock()
	if sess == nil {
		c.writeResp(&wire.Response{ID: req.ID,
			Err: fmt.Sprintf("gateway: session %q not attached on this connection (gw.attach first)", req.Session)})
		return
	}
	// Admission is charged per transaction, at begin: a parked tier's load
	// is driven by how many transactions start, not how many ops each runs.
	if req.Op == wire.OpBegin {
		now := s.now()
		if s.global != nil {
			if ok, wait := s.global.take(1, now); !ok {
				c.writeResp(s.rejected("quota", wait, req))
				return
			}
		}
		if ok, wait := s.tenants.take(sess.tenant, now); !ok {
			c.writeResp(s.rejected("tenant", wait, req))
			return
		}
	}
	l := s.lanes[s.route(req)]
	select {
	case l.q <- laneItem{req: req, sess: sess, conn: c, enq: s.now()}:
	default:
		c.writeResp(s.rejected("lane", 0, req))
	}
}

// rejected builds one backpressure rejection and counts it.
func (s *Server) rejected(reason string, wait time.Duration, req *wire.Request) *wire.Response {
	if wait <= 0 {
		wait = DefaultRetryAfter
	}
	if wait > maxRetryAfterHint {
		wait = maxRetryAfterHint
	}
	if s.m != nil {
		s.m.reject(reason).Inc()
	}
	resp := wire.RetryAfterResponse(wait, reason)
	resp.ID = req.ID
	return resp
}

// attach creates or resumes the logical session req.Session on c.
func (s *Server) attach(c *gwConn, req *wire.Request) *wire.Response {
	if req.Session == "" {
		return &wire.Response{ID: req.ID, Err: "gateway: gw.attach needs a session id"}
	}
	s.mu.Lock()
	sess := s.sessions[req.Session]
	if sess == nil {
		if s.opts.MaxSessions > 0 && len(s.sessions) >= s.opts.MaxSessions {
			s.mu.Unlock()
			return s.rejected("sessions", 0, req)
		}
		sess = &session{id: req.Session, tenant: req.Tenant, conn: c, lastSeen: s.now()}
		sess.owner = wire.NewOwner(sess)
		s.sessions[sess.id] = sess
		s.mu.Unlock()
		if !c.bind(sess) {
			s.park(c, sess, "disconnect") // connection died during attach
		}
		if s.m != nil {
			s.m.attachNew.Inc()
		}
		return &wire.Response{OK: true, ID: req.ID, Session: sess.id}
	}
	if sess.tenant != req.Tenant {
		s.mu.Unlock()
		return &wire.Response{ID: req.ID,
			Err: fmt.Sprintf("gateway: session %q belongs to tenant %q", req.Session, sess.tenant)}
	}
	old := sess.conn
	if old == nil { // resuming a parked session
		s.parked--
		// Credit exactly what park charged: the footprint may have changed
		// while parked (lane workers finishing queued requests prune the
		// owned set), and recomputing it here drifts the gauge permanently.
		s.parkedBytes -= sess.chargedBytes
		sess.chargedBytes = 0
	}
	sess.conn = c
	sess.lastSeen = s.now()
	s.mu.Unlock()
	if old != nil && old != c {
		old.unbind(sess.id) // takeover: latest attach wins
	}
	// Re-adopt surviving transactions under the session's owner (dropping
	// ones the engine swept meanwhile) so the new connection drives them
	// and a later park sleeps them again.
	var owned []string
	for _, tx := range sess.owner.Owned() {
		if !s.e.Knows(tx) {
			sess.owner.Forget(tx)
			continue
		}
		s.e.Adopt(tx, sess.owner)
		owned = append(owned, tx)
	}
	sort.Strings(owned)
	if !c.bind(sess) {
		s.park(c, sess, "disconnect")
	}
	if s.m != nil {
		s.m.attachResume.Inc()
	}
	return &wire.Response{OK: true, ID: req.ID, Session: sess.id, Resumed: true, OwnedTxs: owned}
}

// detach parks the session explicitly: live transactions go to sleep, the
// session stays resumable. Idempotent — detaching a session this
// connection no longer holds is a no-op.
func (s *Server) detach(c *gwConn, req *wire.Request) *wire.Response {
	if req.Session == "" {
		return &wire.Response{ID: req.ID, Err: "gateway: gw.detach needs a session id"}
	}
	s.mu.Lock()
	sess := s.sessions[req.Session]
	s.mu.Unlock()
	if sess != nil {
		c.unbind(sess.id)
		s.park(c, sess, "detach")
	}
	return &wire.Response{OK: true, ID: req.ID, Session: req.Session}
}

// park moves sess to the parked table if it is still bound to c — the
// conn-identity check makes park races with re-attach resolve in the
// attach's favor (a session grabbed by a newer connection stays bound).
// Live transactions go to sleep (the paper's disconnection semantics);
// DisconnectOwner runs under the table lock so a concurrent attach cannot
// resume the session until its transactions are consistently asleep.
func (s *Server) park(c *gwConn, sess *session, cause string) {
	s.mu.Lock()
	if sess.conn != c || s.sessions[sess.id] != sess {
		s.mu.Unlock()
		return
	}
	sess.conn = nil
	sess.lastSeen = s.now()
	s.e.DisconnectOwner(sess.owner)
	s.parked++
	sess.chargedBytes = sess.footprint()
	s.parkedBytes += sess.chargedBytes
	s.mu.Unlock()
	if s.m != nil {
		if cause == "detach" {
			s.m.parkDetach.Inc()
		} else {
			s.m.parkDisconnect.Inc()
		}
	}
}

// gwConn is one multiplexed client connection: a reader goroutine, a write
// lock serializing response frames, and the set of sessions bound here.
type gwConn struct {
	s      *Server
	c      net.Conn
	legacy *wire.Owner // owner for no-session requests, scoped to the conn

	wmu sync.Mutex // serializes response frames

	mu     sync.Mutex
	bound  map[string]*session
	closed bool
}

// bind attaches sess to this connection; false if the connection is gone.
func (c *gwConn) bind(sess *session) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.bound[sess.id] = sess
	return true
}

// unbind forgets a session (takeover or detach).
func (c *gwConn) unbind(id string) {
	c.mu.Lock()
	delete(c.bound, id)
	c.mu.Unlock()
}

// writeResp writes one response frame; write failures are dropped (the
// reader notices the dead connection and parks its sessions).
func (c *gwConn) writeResp(resp *wire.Response) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.WriteMsg(c.c, resp); err != nil {
		c.s.log.Printf("gateway: write to %s: %v", c.c.RemoteAddr(), err)
	}
}

// readLoop decodes and routes request frames until the connection dies,
// then parks every session bound here.
func (c *gwConn) readLoop() {
	defer c.teardown()
	for {
		req := &wire.Request{} // fresh per request: lane items keep pointers
		if err := wire.ReadMsg(c.c, req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.s.log.Printf("gateway: read from %s: %v", c.c.RemoteAddr(), err)
			}
			return
		}
		c.s.handleRequest(c, req)
	}
}

// teardown is the disconnect path: every session bound here is parked (its
// live transactions sleep, its table entry survives for a later resume).
func (c *gwConn) teardown() {
	c.c.Close()
	c.mu.Lock()
	c.closed = true
	bound := make([]*session, 0, len(c.bound))
	for _, sess := range c.bound {
		bound = append(bound, sess)
	}
	c.bound = nil
	c.mu.Unlock()
	for _, sess := range bound {
		c.s.park(c, sess, "disconnect")
	}
	c.s.e.DisconnectOwner(c.legacy)
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
}
