package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"

	"preserial/internal/sem"
)

// DefaultCallTimeout bounds one request/response round trip on a Conn —
// the hung-server guard: a gtmd that stops answering (or a one-way network
// partition) surfaces as ErrCallTimeout instead of blocking the caller
// forever. Raise it (SetCallTimeout) when invokes may legitimately queue
// longer, or use a ResilientConn, which retries on top.
const DefaultCallTimeout = 30 * time.Second

// Call-failure classes. Both mark the connection broken: the protocol is
// strictly request/response, so after a half-finished exchange the stream
// position is unknown and every later call fails fast with ErrBrokenConn.
var (
	// ErrCallTimeout: the peer did not answer within the call timeout.
	ErrCallTimeout = errors.New("wire: call timed out")
	// ErrPeerClosed: the peer hung up mid-call.
	ErrPeerClosed = errors.New("wire: connection closed by peer")
	// ErrBrokenConn: a previous call failed at the transport level.
	ErrBrokenConn = errors.New("wire: connection broken by earlier call failure")
)

// Calls is the protocol's typed call surface, written once over a round
// trip. The three clients embed it and differ only in the round trip they
// supply: Conn makes one synchronous exchange on its TCP connection,
// ResilientConn reconnects, re-attaches and retries around that exchange,
// and the gateway's SessionClient stamps a session and sequence number onto
// a multiplexed connection. A round trip returns the response together
// with its error (see AsError) for an application-level refusal, and a nil
// response for a transport failure.
type Calls func(*Request) (*Response, error)

// Conn is the client side of the middleware protocol: a synchronous RPC
// handle over one TCP connection. Not safe for concurrent use; open one
// Conn per concurrent client.
type Conn struct {
	Calls
	c       net.Conn
	timeout time.Duration
	broken  bool
}

// Dial connects to a gtmd server with the default call timeout.
func Dial(addr string) (*Conn, error) {
	return DialTimeout(addr, 10*time.Second, DefaultCallTimeout)
}

// DialTimeout connects with explicit timeouts. callTimeout bounds each
// request/response round trip; zero waits forever (the pre-deadline
// behavior).
func DialTimeout(addr string, dialTimeout, callTimeout time.Duration) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	cn := &Conn{c: c, timeout: callTimeout}
	cn.Calls = cn.call
	return cn, nil
}

// SetCallTimeout changes the per-call deadline (zero: wait forever).
func (cn *Conn) SetCallTimeout(d time.Duration) { cn.timeout = d }

// Close hangs up. Unfinished transactions begun on this connection go to
// sleep server-side and can be attached from a new connection.
func (cn *Conn) Close() error { return cn.c.Close() }

// call performs one request/response round trip.
func (cn *Conn) call(req *Request) (*Response, error) {
	if cn.broken {
		return nil, ErrBrokenConn
	}
	if cn.timeout > 0 {
		if err := cn.c.SetDeadline(time.Now().Add(cn.timeout)); err != nil {
			return nil, err
		}
	}
	if err := WriteMsg(cn.c, req); err != nil {
		cn.broken = true
		return nil, classify(err)
	}
	var resp Response
	if err := ReadMsg(cn.c, &resp); err != nil {
		cn.broken = true
		return nil, classify(err)
	}
	return &resp, AsError(&resp)
}

// classify distinguishes the two transport failure modes a caller handles
// differently: a timeout (the peer may still be alive but unreachable or
// hung — retry elsewhere or give up) and a peer-closed stream (the
// connection is definitively gone — reconnect).
func classify(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrCallTimeout, err)
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return fmt.Errorf("%w: %v", ErrPeerClosed, err)
	}
	return err
}

// do round-trips a request whose response carries nothing but success.
func (c Calls) do(req *Request) error {
	_, err := c(req)
	return err
}

// value decodes the value a read response carries.
func value(resp *Response, err error) (sem.Value, error) {
	if err != nil {
		return sem.Value{}, err
	}
	if resp.Value == nil {
		return sem.Value{}, errors.New("wire: read returned no value")
	}
	return resp.Value.ToSem()
}

// Ping checks liveness.
func (c Calls) Ping() error { return c.do(&Request{Op: OpPing}) }

// Begin starts a transaction owned by this client.
func (c Calls) Begin(tx string) error { return c.do(&Request{Op: OpBegin, Tx: tx}) }

// BeginReadOnly starts a read-only snapshot transaction: reads are served
// lock- and monitor-free from the server's committed version chains, pinned
// at begin time. Only read-class invokes are accepted; Commit and Abort
// both just release the snapshot.
func (c Calls) BeginReadOnly(tx string) error {
	return c.do(&Request{Op: OpBegin, Tx: tx, ReadOnly: true})
}

// Attach adopts an existing transaction (e.g. one that went to sleep when
// a previous connection dropped).
func (c Calls) Attach(tx string) error { return c.do(&Request{Op: OpAttach, Tx: tx}) }

// Invoke requests an operation class on an object, blocking until granted.
func (c Calls) Invoke(tx, object string, class sem.Class, member string) error {
	return c.do(&Request{Op: OpInvoke, Tx: tx, Object: object, Class: ClassName(class), Member: member})
}

// Read returns the transaction's virtual value of the object.
func (c Calls) Read(tx, object string) (sem.Value, error) {
	return value(c(&Request{Op: OpRead, Tx: tx, Object: object}))
}

// SnapshotRead performs a one-shot monitor-free snapshot read: the server
// pins the committed state, reads the member, and releases the pin, all in
// one round trip — no transaction, no invoke, no lock.
func (c Calls) SnapshotRead(object, member string) (sem.Value, error) {
	return value(c(&Request{Op: OpRead, Object: object, Member: member, ReadOnly: true}))
}

// Apply performs one operation of the invoked class on the virtual copy.
func (c Calls) Apply(tx, object string, operand sem.Value) error {
	wv := FromSem(operand)
	return c.do(&Request{Op: OpApply, Tx: tx, Object: object, Operand: &wv})
}

// Commit runs the two-phase commit and blocks until the SST finishes.
func (c Calls) Commit(tx string) error { return c.do(&Request{Op: OpCommit, Tx: tx}) }

// Abort aborts the transaction.
func (c Calls) Abort(tx string) error { return c.do(&Request{Op: OpAbort, Tx: tx}) }

// Prepare runs 2PC phase 1 on the transaction: the server stages the SST
// write set, the transaction goes in doubt, and the staged writes come
// back for the coordinator to log. Settle with Decide.
func (c Calls) Prepare(tx string) ([]SSTWriteJSON, error) {
	resp, err := c(&Request{Op: OpPrepare, Tx: tx})
	if err != nil {
		return nil, err
	}
	return resp.Writes, nil
}

// Decide settles a prepared transaction (2PC phase 2). extra writes are
// appended to the decided SST — the coordinator's decision marker.
func (c Calls) Decide(tx string, commit bool, extra ...SSTWriteJSON) error {
	return c.do(&Request{Op: OpDecide, Tx: tx, Decision: commit, Writes: extra})
}

// Replay re-applies a logged commit decision after a participant restart.
// applied=false reports the marker probe found the write set already
// durable. Idempotent; the recovering coordinator is the only caller.
func (c Calls) Replay(tx string, marker SSTWriteJSON, writes []SSTWriteJSON) (applied bool, err error) {
	resp, err := c(&Request{Op: OpReplay, Tx: tx, Marker: &marker, Writes: writes})
	if err != nil {
		return false, err
	}
	return resp.Applied, nil
}

// Shards returns the shard topology. With object non-empty the response
// also names the shard that owns it.
func (c Calls) Shards(object string) ([]ShardStat, *int, error) {
	resp, err := c(&Request{Op: OpShards, Object: object})
	if err != nil {
		return nil, nil, err
	}
	return resp.Shards, resp.Shard, nil
}

// Sleep parks the transaction explicitly.
func (c Calls) Sleep(tx string) error { return c.do(&Request{Op: OpSleep, Tx: tx}) }

// Awake resumes a sleeping transaction; resumed=false means the GTM
// aborted it because an incompatible operation intervened.
func (c Calls) Awake(tx string) (resumed bool, err error) {
	resp, err := c(&Request{Op: OpAwake, Tx: tx})
	if err != nil {
		return false, err
	}
	return resp.Resumed, nil
}

// State returns the transaction's state name.
func (c Calls) State(tx string) (string, error) {
	resp, err := c(&Request{Op: OpState, Tx: tx})
	if err != nil {
		return "", err
	}
	return resp.State, nil
}

// Stats returns the middleware's counters.
func (c Calls) Stats() (map[string]uint64, error) {
	stats, _, err := c.Metrics()
	return stats, err
}

// Metrics returns the server's live observability snapshot alongside the
// manager counters. The metrics map is empty when the server runs without
// an obs registry.
func (c Calls) Metrics() (stats, metrics map[string]uint64, err error) {
	resp, err := c(&Request{Op: OpStats})
	if err != nil {
		return nil, nil, err
	}
	return resp.Stats, resp.Metrics, nil
}

// MetricsOnly returns the server's observability snapshot without copying
// the backend counters — the only stats path that itself enters zero GTM
// monitor sections, so bracketing a measurement window with it leaves the
// monitor-entry counter untouched.
func (c Calls) MetricsOnly() (map[string]uint64, error) {
	resp, err := c(&Request{Op: OpStats, ReadOnly: true})
	if err != nil {
		return nil, err
	}
	return resp.Metrics, nil
}

// ObjectInfo returns one object's scheduling snapshot.
func (c Calls) ObjectInfo(object string) (*ObjectInfoJSON, error) {
	resp, err := c(&Request{Op: OpInfo, Object: object})
	if err != nil {
		return nil, err
	}
	return resp.Info, nil
}

// Transactions returns the server's transaction registry snapshot.
func (c Calls) Transactions() ([]TxSummaryJSON, error) {
	resp, err := c(&Request{Op: OpTxs})
	if err != nil {
		return nil, err
	}
	return resp.Txs, nil
}

// Objects lists the objects the middleware manages.
func (c Calls) Objects() ([]string, error) {
	resp, err := c(&Request{Op: OpObjects})
	if err != nil {
		return nil, err
	}
	return resp.Objects, nil
}
