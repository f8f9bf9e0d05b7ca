package wire

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"preserial/internal/obs"
)

// ErrTxLost reports that the server no longer knows a transaction this
// client owned — it restarted (losing its in-memory GTM registry) or swept
// the transaction past the retention window. The transaction's outcome is
// unknown to the client: a commit that was in flight may or may not have
// reached the WAL.
var ErrTxLost = errors.New("wire: transaction lost by server")

// ResilientOptions configures a ResilientConn. The zero value is usable.
type ResilientOptions struct {
	// CallTimeout bounds each request/response round trip (default
	// DefaultCallTimeout). Set it above the worst blocking invoke/commit
	// wait you expect, or retries will chase a call that is merely slow.
	CallTimeout time.Duration
	// DialTimeout bounds each connection attempt (default 10s).
	DialTimeout time.Duration
	// BackoffBase and BackoffCap shape the capped exponential backoff with
	// ±50% jitter between attempts (defaults 25ms and 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// MaxAttempts is the total tries per call, first included (default 10).
	MaxAttempts int
	// Seed fixes the jitter RNG for reproducible tests (0: time-seeded).
	Seed int64
	// Obs, when non-nil, receives wire_reconnects_total and
	// wire_client_retries_total.
	Obs *obs.Registry
	// Logger receives reconnect/re-attach events; nil silences them.
	Logger *log.Logger
}

// ResilientConn is the disconnection-tolerant client of the middleware
// protocol: a Conn that puts a deadline on every call, reconnects with
// capped exponential backoff + jitter when the transport fails, re-attaches
// to (and re-awakens) the transactions it owns on the new connection, and
// retries the failed request under its original sequence number so the
// server's exactly-once window replays — never re-executes — anything the
// first attempt already applied.
//
// Like Conn, a ResilientConn is not safe for concurrent use: open one per
// concurrent client. Application-level errors (aborts, constraint
// violations, unknown objects) are returned immediately; only transport
// faults are retried.
type ResilientConn struct {
	Calls
	addr string
	opts ResilientOptions
	log  *log.Logger
	rng  *rand.Rand

	cn     *Conn
	dialed bool              // a first connection has succeeded
	seqs   map[string]uint64 // per-transaction sequence counters
	owned  map[string]bool   // transactions to re-attach after a reconnect
	doomed map[string]error  // transactions with a known terminal failure

	reconnects atomic.Uint64
	retries    atomic.Uint64

	obsReconnects *obs.Counter
	obsRetries    *obs.Counter
}

// DialResilient creates a ResilientConn. No connection is attempted until
// the first call, so dialing a currently-down server succeeds.
func DialResilient(addr string, opts ResilientOptions) *ResilientConn {
	if opts.CallTimeout == 0 {
		opts.CallTimeout = DefaultCallTimeout
	}
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 10 * time.Second
	}
	if opts.BackoffBase == 0 {
		opts.BackoffBase = 25 * time.Millisecond
	}
	if opts.BackoffCap == 0 {
		opts.BackoffCap = 2 * time.Second
	}
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 10
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	lg := opts.Logger
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	rc := &ResilientConn{
		addr:   addr,
		opts:   opts,
		log:    lg,
		rng:    rand.New(rand.NewSource(seed)),
		seqs:   make(map[string]uint64),
		owned:  make(map[string]bool),
		doomed: make(map[string]error),
	}
	rc.Calls = rc.call
	if opts.Obs != nil {
		rc.obsReconnects = opts.Obs.Counter(obs.NameWireReconnects, "Reconnections performed by resilient clients.")
		rc.obsRetries = opts.Obs.Counter(obs.NameWireClientRetries, "Request retries performed by resilient clients.")
	}
	return rc
}

// Reconnects returns how many times this client re-established its
// connection after losing one.
func (rc *ResilientConn) Reconnects() uint64 { return rc.reconnects.Load() }

// Retries returns how many request attempts beyond the first were made.
func (rc *ResilientConn) Retries() uint64 { return rc.retries.Load() }

// Close hangs up. Owned unfinished transactions go to sleep server-side.
func (rc *ResilientConn) Close() error {
	if rc.cn != nil {
		err := rc.cn.Close()
		rc.cn = nil
		return err
	}
	return nil
}

// DropLink severs the underlying connection without forgetting any client
// state — a simulated network failure. The next call reconnects,
// re-attaches the owned transactions and awakens the ones the server put
// to sleep. Load generators use this to model mobile disconnections.
func (rc *ResilientConn) DropLink() { rc.dropConn() }

// nextSeq advances the transaction's sequence counter.
func (rc *ResilientConn) nextSeq(tx string) uint64 {
	rc.seqs[tx]++
	return rc.seqs[tx]
}

// backoff returns the sleep before the attempt-th retry: capped exponential
// growth with ±50% jitter.
func (rc *ResilientConn) backoff(attempt int) time.Duration {
	d := rc.opts.BackoffBase
	for i := 1; i < attempt && d < rc.opts.BackoffCap; i++ {
		d *= 2
	}
	if d > rc.opts.BackoffCap {
		d = rc.opts.BackoffCap
	}
	jitter := 0.5 + rc.rng.Float64()
	return time.Duration(float64(d) * jitter)
}

// dropConn discards a broken connection.
func (rc *ResilientConn) dropConn() {
	if rc.cn != nil {
		rc.cn.Close()
		rc.cn = nil
	}
}

// ensureConn returns a live connection, dialing and re-attaching if needed.
func (rc *ResilientConn) ensureConn() (*Conn, error) {
	if rc.cn != nil {
		return rc.cn, nil
	}
	cn, err := DialTimeout(rc.addr, rc.opts.DialTimeout, rc.opts.CallTimeout)
	if err != nil {
		return nil, err
	}
	if rc.dialed {
		rc.reconnects.Add(1)
		if rc.obsReconnects != nil {
			rc.obsReconnects.Inc()
		}
		rc.log.Printf("wire: reconnected to %s", rc.addr)
	}
	rc.dialed = true
	for tx := range rc.owned {
		if err := rc.reattach(cn, tx); err != nil {
			cn.Close()
			return nil, err
		}
	}
	rc.cn = cn
	return cn, nil
}

// errTransport marks reattach failures that should poison the whole
// connection attempt (vs. per-transaction outcomes recorded in doomed).
type errTransport struct{ err error }

func (e errTransport) Error() string { return e.err.Error() }
func (e errTransport) Unwrap() error { return e.err }

// reattach re-adopts one owned transaction on a fresh connection and, if
// the server put it to sleep when the old connection died, awakens it.
func (rc *ResilientConn) reattach(cn *Conn, tx string) error {
	if rc.doomed[tx] != nil {
		return nil
	}
	resp, err := cn.call(&Request{Op: OpAttach, Tx: tx})
	if err != nil {
		if resp == nil {
			return errTransport{err}
		}
		// The server does not know the transaction anymore: it restarted or
		// swept it. Remember the loss; the caller learns on its next call.
		rc.doom(tx, fmt.Errorf("%w: %v", ErrTxLost, err))
		return nil
	}
	rc.log.Printf("wire: re-attached %s", tx)
	return rc.awakenIfSleeping(cn, tx)
}

// awakenIfSleeping resumes a transaction the disconnection put to sleep.
func (rc *ResilientConn) awakenIfSleeping(cn *Conn, tx string) error {
	resp, err := cn.call(&Request{Op: OpState, Tx: tx})
	if err != nil {
		if resp == nil {
			return errTransport{err}
		}
		return nil // state query refused: leave it to the retried op
	}
	if resp.State != "Sleeping" {
		return nil
	}
	return rc.awaken(cn, tx)
}

// awaken issues an awake for tx. A resumed=false outcome (an incompatible
// operation intervened during the sleep) dooms the transaction with the
// sleep-conflict abort.
func (rc *ResilientConn) awaken(cn *Conn, tx string) error {
	resp, err := cn.call(&Request{Op: OpAwake, Tx: tx, Seq: rc.nextSeq(tx)})
	if err != nil {
		if resp == nil {
			return errTransport{err}
		}
		return nil // refused: already awake (e.g. a replayed earlier awake won)
	}
	if !resp.Resumed {
		rc.doom(tx, fmt.Errorf("core: transaction %s aborted (sleep-conflict): incompatible operation during disconnection", tx))
	} else {
		rc.log.Printf("wire: awakened %s after reconnect", tx)
	}
	return nil
}

// doom records a transaction's terminal client-side failure.
func (rc *ResilientConn) doom(tx string, err error) {
	rc.doomed[tx] = err
	delete(rc.owned, tx)
}

// call runs one logical request to completion: stamp a sequence number if
// the op mutates, then attempt/reconnect/retry until a response arrives, an
// application error is returned, or the attempt budget is spent. A
// successful begin or attach adds the transaction to the owned set that a
// reconnect re-attaches; a successful commit, abort or decide removes it.
// A commit whose response was lost to a disconnection is recovered by
// retrying under the same sequence number: the server replays the recorded
// outcome instead of committing twice.
func (rc *ResilientConn) call(req *Request) (*Response, error) {
	if req.Tx != "" {
		if err := rc.doomed[req.Tx]; err != nil {
			return nil, err
		}
	}
	if req.Op.Mutating() && req.Tx != "" {
		req.Seq = rc.nextSeq(req.Tx)
	}
	var lastErr error
	for attempt := 0; attempt < rc.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			rc.retries.Add(1)
			if rc.obsRetries != nil {
				rc.obsRetries.Inc()
			}
			time.Sleep(rc.backoff(attempt))
		}
		cn, err := rc.ensureConn()
		if err != nil {
			var te errTransport
			if !errors.As(err, &te) {
				rc.log.Printf("wire: dial %s: %v", rc.addr, err)
			}
			lastErr = err
			continue
		}
		if req.Tx != "" {
			if derr := rc.doomed[req.Tx]; derr != nil {
				return nil, derr // reattach discovered the loss
			}
		}
		resp, err := cn.call(req)
		if err == nil {
			switch {
			case req.Op == OpBegin, req.Op == OpAttach:
				rc.owned[req.Tx] = true
			case terminalOp(req.Op):
				delete(rc.owned, req.Tx) // nothing left to re-attach
			}
			return resp, nil
		}
		if resp == nil {
			// Transport fault: reconnect and retry under the same seq.
			lastErr = err
			rc.dropConn()
			continue
		}
		// Application-level refusal. Two are recoverable here: the server
		// slept the transaction between our re-attach and this call (the
		// old connection's teardown raced us) — awaken and retry; and an
		// unknown transaction we own — the server lost it.
		msg := err.Error()
		if req.Tx != "" && strings.Contains(msg, "is Sleeping") {
			if aerr := rc.awaken(cn, req.Tx); aerr != nil {
				lastErr = aerr
				rc.dropConn()
				continue
			}
			if derr := rc.doomed[req.Tx]; derr != nil {
				return nil, derr
			}
			lastErr = err
			continue
		}
		if req.Tx != "" && rc.owned[req.Tx] && strings.Contains(msg, "unknown transaction") {
			rc.doom(req.Tx, fmt.Errorf("%w: %v", ErrTxLost, err))
			return nil, rc.doomed[req.Tx]
		}
		return resp, err
	}
	return nil, fmt.Errorf("wire: %s %s: giving up after %d attempts: %w",
		req.Op, req.Tx, rc.opts.MaxAttempts, lastErr)
}
