// Package gateway is the million-client front tier of the middleware: it
// multiplexes many logical GTM sessions over few TCP connections, so the
// per-client cost of the paper's long-running mobile transactions is bytes,
// not a connection and a goroutine.
//
// The gateway is a session layer on wire.Server's connection loop: the
// server accepts, reads frames, writes responses and counts them, and the
// gateway claims the frames that belong to logical sessions. That adds
// three extensions to the protocol: gw.attach/gw.detach create, resume
// and park logical sessions; requests carrying a correlation ID may be
// answered out of order; and admission control may shed a request with an
// explicit retry-after hint instead of queueing it unboundedly. Frames
// without a session are served by the server in order, one owner per
// connection, exactly as a bare wire.Server serves them. Request execution
// is the one wire.Engine — exactly-once replay, ownership and
// disconnection semantics included — so a client gets identical semantics
// whichever way it connects.
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
	// Obs, when non-nil, receives the gw_* metric family and the server's
	// wire_* series, which count every frame.
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

// laneItem is one queued session request and the connection it arrived on.
type laneItem struct {
	req  *wire.Request
	sess *session
	c    *wire.ServerConn
	enq  time.Time
}

// lane is one bounded dispatch queue plus its worker pool.
type lane struct{ q chan laneItem }

// Server is the gateway front end: a wire.Server whose session layer is
// the gateway. Create with NewServer, start with Serve.
type Server struct {
	*wire.Server
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

	mu          sync.Mutex
	stopped     bool
	stopReap    chan struct{} // non-nil once the lanes and reaper run
	sessions    map[string]*session
	parked      int   // sessions with conn == nil
	parkedBytes int64 // estimated footprint of parked sessions

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
		log:      lg,
		opts:     opts,
		tenants:  newTenantLimiter(opts.TenantRate, opts.TenantBurst),
		sessions: make(map[string]*session),
	}
	s.Server = wire.NewSessionServer(b, wire.ServerOptions{
		Logger:        lg,
		InvokeTimeout: opts.InvokeTimeout,
		Retention:     opts.Retention,
		Obs:           opts.Obs,
	}, s)
	s.e = s.Engine()
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

// now reads the configured clock.
func (s *Server) now() time.Time { return s.opts.Now() }

// Serve starts the dispatch lanes and the parked-session reaper, then
// serves connections on addr until Close or Drain.
func (s *Server) Serve(addr string) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return errors.New("gateway: server closed")
	}
	if s.stopReap == nil {
		s.stopReap = make(chan struct{})
		for _, l := range s.lanes {
			for i := 0; i < s.opts.LaneWorkers; i++ {
				s.laneWG.Add(1)
				go s.laneWorker(l)
			}
		}
		if s.opts.SessionRetention > 0 {
			go s.reapLoop(s.stopReap)
		}
	}
	s.mu.Unlock()
	return s.Server.Serve(addr)
}

// Close stops the listener, hangs up every connection and stops the lane
// workers. Parked sessions' transactions are already asleep; bound
// sessions' go to sleep as their connections die.
func (s *Server) Close() error {
	err := s.Server.Close()
	s.stop()
	return err
}

// Drain shuts down gracefully: stop accepting, cancel blocking waits, put
// every live transaction to sleep, wait out in-flight commits, then hang
// up. The SIGTERM path of gtmd.
func (s *Server) Drain(timeout time.Duration) wire.DrainReport {
	rep := s.Server.Drain(timeout)
	s.stop()
	return rep
}

// stop ends the reaper and the lane workers. It runs once the server's
// shutdown has returned: every reader is gone, so no frame reaches a lane
// after its queue closes.
func (s *Server) stop() {
	s.mu.Lock()
	stopped, stopReap := s.stopped, s.stopReap
	s.stopped = true
	s.mu.Unlock()
	if stopped || stopReap == nil {
		return
	}
	close(stopReap)
	for _, l := range s.lanes {
		close(l.q)
	}
	s.laneWG.Wait()
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
	cutoff := s.now().Add(-olderThan).UnixNano()
	s.mu.Lock()
	var n int
	for id, sess := range s.sessions {
		if sess.conn == nil && sess.lastSeen < cutoff {
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
		if s.m != nil {
			s.m.dispatches.Inc()
			s.m.dispatchSeconds.Observe(s.now().Sub(it.enq))
		}
		// The session may have migrated to another connection while this
		// request was queued; answer on the connection it arrived on. If
		// that connection died, the response is dropped — the client's
		// retry replays it from the exactly-once window.
		it.c.Reply(it.req, resp)
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

// Frame claims session control (gw.attach, gw.detach) and every frame that
// names a session; frames without one fall through to the server's
// in-order path, which is what unmodified clients expect. Session requests
// go through admission control and the lanes.
func (s *Server) Frame(c *wire.ServerConn, req *wire.Request) bool {
	if req.Session == "" && req.Op != wire.OpGwAttach && req.Op != wire.OpGwDetach {
		return false
	}
	gc, _ := c.Layer.(*gwConn)
	if gc == nil {
		gc = &gwConn{c: c, bound: make(map[string]*session)}
		c.Layer = gc
	}
	var resp *wire.Response
	switch req.Op {
	case wire.OpGwAttach:
		resp = s.attach(gc, req)
	case wire.OpGwDetach:
		resp = s.detach(gc, req)
	default:
		resp = s.dispatchSession(gc, req)
	}
	if resp != nil {
		c.Reply(req, resp)
	}
	return true
}

// Hangup is the disconnect path: every session bound to c is parked (its
// live transactions sleep, its table entry survives for a later resume).
func (s *Server) Hangup(c *wire.ServerConn) {
	gc, _ := c.Layer.(*gwConn)
	if gc == nil {
		return
	}
	gc.mu.Lock()
	bound := gc.bound
	gc.bound = nil
	gc.mu.Unlock()
	for _, sess := range bound {
		s.park(gc, sess, "disconnect")
	}
}

// dispatchSession admits and enqueues one session request. It returns
// nil once the request is queued (a lane worker answers it), or the
// refusal to send back now.
func (s *Server) dispatchSession(gc *gwConn, req *wire.Request) *wire.Response {
	gc.mu.Lock()
	sess := gc.bound[req.Session]
	gc.mu.Unlock()
	if sess == nil {
		return &wire.Response{
			Err: fmt.Sprintf("gateway: session %q not attached on this connection (gw.attach first)", req.Session)}
	}
	// Admission is charged per transaction, at begin: a parked tier's load
	// is driven by how many transactions start, not how many ops each runs.
	if req.Op == wire.OpBegin {
		now := s.now()
		if s.global != nil {
			if ok, wait := s.global.take(1, now); !ok {
				return s.rejected("quota", wait)
			}
		}
		if ok, wait := s.tenants.take(sess.tenant, now); !ok {
			return s.rejected("tenant", wait)
		}
	}
	l := s.lanes[s.route(req)]
	select {
	case l.q <- laneItem{req: req, sess: sess, c: gc.c, enq: s.now()}:
		return nil
	default:
		return s.rejected("lane", 0)
	}
}

// rejected builds one backpressure rejection and counts it.
func (s *Server) rejected(reason string, wait time.Duration) *wire.Response {
	if wait <= 0 {
		wait = DefaultRetryAfter
	}
	if wait > maxRetryAfterHint {
		wait = maxRetryAfterHint
	}
	if s.m != nil {
		s.m.reject(reason).Inc()
	}
	return wire.RetryAfterResponse(wait, reason)
}

// attach creates or resumes the logical session req.Session on c.
func (s *Server) attach(c *gwConn, req *wire.Request) *wire.Response {
	if req.Session == "" {
		return &wire.Response{Err: "gateway: gw.attach needs a session id"}
	}
	s.mu.Lock()
	sess := s.sessions[req.Session]
	if sess == nil {
		if s.opts.MaxSessions > 0 && len(s.sessions) >= s.opts.MaxSessions {
			s.mu.Unlock()
			return s.rejected("sessions", 0)
		}
		sess = &session{id: req.Session, tenant: req.Tenant, conn: c, lastSeen: s.now().UnixNano()}
		sess.owner = wire.NewOwner(sess)
		s.sessions[sess.id] = sess
		s.mu.Unlock()
		c.bind(sess)
		if s.m != nil {
			s.m.attachNew.Inc()
		}
		return &wire.Response{OK: true, Session: sess.id}
	}
	if sess.tenant != req.Tenant {
		s.mu.Unlock()
		return &wire.Response{
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
	sess.lastSeen = s.now().UnixNano()
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
	c.bind(sess)
	if s.m != nil {
		s.m.attachResume.Inc()
	}
	return &wire.Response{OK: true, Session: sess.id, Resumed: true, OwnedTxs: owned}
}

// detach parks the session explicitly: live transactions go to sleep, the
// session stays resumable. Idempotent — detaching a session this
// connection no longer holds is a no-op.
func (s *Server) detach(c *gwConn, req *wire.Request) *wire.Response {
	if req.Session == "" {
		return &wire.Response{Err: "gateway: gw.detach needs a session id"}
	}
	s.mu.Lock()
	sess := s.sessions[req.Session]
	s.mu.Unlock()
	if sess != nil {
		c.unbind(sess.id)
		s.park(c, sess, "detach")
	}
	return &wire.Response{OK: true, Session: req.Session}
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
	sess.lastSeen = s.now().UnixNano()
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

// gwConn is the gateway's state for one client connection: the sessions
// bound to it. Attach binds on the connection's reader goroutine, the same
// goroutine that later reports the hang-up, so no bind follows Hangup.
type gwConn struct {
	c *wire.ServerConn

	mu    sync.Mutex
	bound map[string]*session
}

// bind attaches sess to this connection.
func (c *gwConn) bind(sess *session) {
	c.mu.Lock()
	c.bound[sess.id] = sess
	c.mu.Unlock()
}

// unbind forgets a session (takeover or detach).
func (c *gwConn) unbind(id string) {
	c.mu.Lock()
	delete(c.bound, id)
	c.mu.Unlock()
}
