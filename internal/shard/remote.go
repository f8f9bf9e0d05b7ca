package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"preserial/internal/core"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// Remote connection timeouts: a down shard should surface as ErrShardDown
// quickly, not hang a topology query for the full client-side defaults.
const (
	remoteDialTimeout = 2 * time.Second
	remoteCallTimeout = 30 * time.Second
)

// Control-plane retry policy: a transport failure (a participant
// restarting, a dropped connection) redials with capped backoff instead of
// failing the first probe.
const (
	remoteCtlAttempts   = 4
	remoteCtlBackoff    = 25 * time.Millisecond
	remoteCtlBackoffMax = 200 * time.Millisecond
)

// RemoteShard fronts a participant gtmd process over the wire protocol —
// the multi-process deployment. Each live transaction gets its own
// connection (the protocol ties disconnection semantics to connections),
// closed when the cluster learns the outcome; control-plane calls (state,
// stats, decide-by-id, replay) share one lazily redialed connection.
//
// Liveness is observed, not configured: a transport-level failure marks the
// shard down, the next successful call marks it up again.
type RemoteShard struct {
	index int
	addr  string

	mu   sync.Mutex
	ctl  *wire.Conn
	down bool
}

// NewRemoteShard points a cluster at a participant listening on addr. The
// index must match the participant's position in the cluster's shard list
// (and the participant's own -shard-index).
func NewRemoteShard(index int, addr string) *RemoteShard {
	return &RemoteShard{index: index, addr: addr}
}

// Index implements Shard.
func (r *RemoteShard) Index() int { return r.index }

// Addr implements Shard.
func (r *RemoteShard) Addr() string { return r.addr }

// Down implements Shard: whether the last transport attempt failed.
func (r *RemoteShard) Down() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.down
}

// Ping implements Shard: one liveness probe over the control connection.
func (r *RemoteShard) Ping() error {
	return r.withCtl(func(cn *wire.Conn) error { return cn.Ping() })
}

// transportErr reports whether a call failed at the transport level (the
// shard process or the network, not the application).
func transportErr(err error) bool {
	return errors.Is(err, wire.ErrCallTimeout) || errors.Is(err, wire.ErrPeerClosed) ||
		errors.Is(err, wire.ErrBrokenConn)
}

func (r *RemoteShard) setDown() {
	r.mu.Lock()
	r.down = true
	r.mu.Unlock()
}

func (r *RemoteShard) setUp() {
	r.mu.Lock()
	r.down = false
	r.mu.Unlock()
}

// withCtl runs one control-plane call, dialing the control connection on
// demand and retrying transport failures with capped backoff — a stale
// connection redials immediately; a dead or restarting shard gets a few
// spaced attempts before the call surfaces ErrShardDown.
func (r *RemoteShard) withCtl(fn func(cn *wire.Conn) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	backoff := remoteCtlBackoff
	var lastErr error
	for attempt := 0; attempt < remoteCtlAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > remoteCtlBackoffMax {
				backoff = remoteCtlBackoffMax
			}
		}
		if r.ctl == nil {
			cn, err := wire.DialTimeout(r.addr, remoteDialTimeout, remoteCallTimeout)
			if err != nil {
				r.down = true
				lastErr = err
				continue
			}
			r.ctl = cn
		}
		err := fn(r.ctl)
		if err == nil {
			r.down = false
			return nil
		}
		if !transportErr(err) {
			r.down = false // the shard answered; the error is the answer
			return err
		}
		r.ctl.Close()
		r.ctl = nil
		r.down = true
		lastErr = err
	}
	return fmt.Errorf("%w: shard %d at %s: %v", ErrShardDown, r.index, r.addr, lastErr)
}

// Begin implements Shard: a dedicated connection per transaction.
func (r *RemoteShard) Begin(tx string) (Session, error) {
	cn, err := wire.DialTimeout(r.addr, remoteDialTimeout, remoteCallTimeout)
	if err != nil {
		r.setDown()
		return nil, fmt.Errorf("%w: shard %d at %s: %v", ErrShardDown, r.index, r.addr, err)
	}
	if err := cn.Begin(tx); err != nil {
		cn.Close()
		if transportErr(err) {
			r.setDown()
			return nil, fmt.Errorf("%w: shard %d at %s: %v", ErrShardDown, r.index, r.addr, err)
		}
		return nil, err
	}
	r.setUp()
	return &remoteSession{shard: r, cn: cn, tx: tx}, nil
}

// Decide implements Shard: deliver a coordinator verdict by transaction id.
// The participant's server still holds the prepared session (sessions
// outlive connections), so this works after a coordinator restart; a
// participant that itself restarted answers unknown-transaction and the
// caller falls back to Replay.
func (r *RemoteShard) Decide(tx string, commit bool, extra []wire.SSTWriteJSON) error {
	return r.withCtl(func(cn *wire.Conn) error { return cn.Decide(tx, commit, extra...) })
}

// Replay implements Shard.
func (r *RemoteShard) Replay(tx string, marker wire.SSTWriteJSON, writes []wire.SSTWriteJSON) (bool, error) {
	var applied bool
	err := r.withCtl(func(cn *wire.Conn) error {
		a, err := cn.Replay(tx, marker, writes)
		applied = a
		return err
	})
	return applied, err
}

// TxState implements Shard.
func (r *RemoteShard) TxState(tx string) (core.State, error) {
	var st core.State
	err := r.withCtl(func(cn *wire.Conn) error {
		name, err := cn.State(tx)
		if err != nil {
			return err
		}
		parsed, ok := parseState(name)
		if !ok {
			return fmt.Errorf("shard: shard %d reported unknown state %q", r.index, name)
		}
		st = parsed
		return nil
	})
	return st, err
}

// Sleep implements Shard.
func (r *RemoteShard) Sleep(tx string) error {
	return r.withCtl(func(cn *wire.Conn) error { return cn.Sleep(tx) })
}

// Transactions implements Shard; nil when the call fails (a transport
// failure also marks the shard down).
func (r *RemoteShard) Transactions() []wire.TxSummaryJSON {
	var txs []wire.TxSummaryJSON
	_ = r.withCtl(func(cn *wire.Conn) (err error) {
		txs, err = cn.Transactions()
		return err
	})
	return txs
}

// Objects implements Shard; nil when the call fails.
func (r *RemoteShard) Objects() []string {
	var ids []string
	_ = r.withCtl(func(cn *wire.Conn) (err error) {
		ids, err = cn.Objects()
		return err
	})
	return ids
}

// ObjectInfo implements Shard.
func (r *RemoteShard) ObjectInfo(object string) (*wire.ObjectInfoJSON, error) {
	var info *wire.ObjectInfoJSON
	err := r.withCtl(func(cn *wire.Conn) error {
		i, err := cn.ObjectInfo(object)
		info = i
		return err
	})
	return info, err
}

// Stats implements Shard; nil when the call fails.
func (r *RemoteShard) Stats() map[string]uint64 {
	var st map[string]uint64
	_ = r.withCtl(func(cn *wire.Conn) (err error) {
		st, err = cn.Stats()
		return err
	})
	return st
}

// Close hangs up the control connection.
func (r *RemoteShard) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ctl != nil {
		err := r.ctl.Close()
		r.ctl = nil
		return err
	}
	return nil
}

// remoteSession is one transaction's dedicated connection to its shard.
// Contexts on Invoke/Commit/Prepare/Decide are satisfied by the connection's
// call timeout — the wire protocol has no cross-process cancellation.
type remoteSession struct {
	shard *RemoteShard
	cn    *wire.Conn
	tx    string
}

// note records the shard's observed liveness from a call outcome.
func (s *remoteSession) note(err error) error {
	if err == nil {
		s.shard.setUp()
	} else if transportErr(err) {
		s.shard.setDown()
	}
	return err
}

func (s *remoteSession) Invoke(_ context.Context, obj core.ObjectID, op sem.Op) error {
	return s.note(s.cn.Invoke(s.tx, string(obj), op.Class, op.Member))
}

func (s *remoteSession) Read(obj core.ObjectID) (sem.Value, error) {
	v, err := s.cn.Read(s.tx, string(obj))
	return v, s.note(err)
}

func (s *remoteSession) Apply(obj core.ObjectID, operand sem.Value) error {
	return s.note(s.cn.Apply(s.tx, string(obj), operand))
}

func (s *remoteSession) Commit(context.Context) error { return s.note(s.cn.Commit(s.tx)) }
func (s *remoteSession) Abort() error                 { return s.note(s.cn.Abort(s.tx)) }
func (s *remoteSession) Sleep() error                 { return s.note(s.cn.Sleep(s.tx)) }

func (s *remoteSession) Awake() (bool, error) {
	resumed, err := s.cn.Awake(s.tx)
	return resumed, s.note(err)
}

func (s *remoteSession) Prepare(context.Context) ([]wire.SSTWriteJSON, error) {
	writes, err := s.cn.Prepare(s.tx)
	return writes, s.note(err)
}

func (s *remoteSession) Decide(_ context.Context, commit bool, extra []wire.SSTWriteJSON) error {
	return s.note(s.cn.Decide(s.tx, commit, extra...))
}

func (s *remoteSession) Release() { s.cn.Close() }
