// Package wire exposes the GTM as the middleware layer of Section III: a
// TCP server speaking a length-prefixed JSON protocol, plus the matching
// client library. One connection drives any number of transactions
// sequentially; when a connection drops, its unfinished transactions are
// put to sleep rather than aborted — the paper's disconnection handling —
// and a later connection can attach and awaken them.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"preserial/internal/sem"
)

// MaxFrame bounds a single protocol frame.
const MaxFrame = 1 << 20

// Version is the protocol revision this package implements. Version 2 adds
// per-transaction request sequence numbers (Request.Seq) and exactly-once
// replay of mutating operations; version-1 clients simply omit Seq (seq 0 =
// legacy, no dedup) and keep working unchanged.
const Version = 2

// Op is a protocol request kind. Switches over it must be exhaustive
// (gtmlint/statexhaustive): a new op must be consciously classified by
// Mutating, or retries could silently double-apply it.
//
//gtmlint:exhaustive
type Op string

// Protocol operations.
const (
	OpBegin   Op = "begin"
	OpAttach  Op = "attach" // adopt an existing transaction on this connection
	OpInvoke  Op = "invoke"
	OpRead    Op = "read"
	OpApply   Op = "apply"
	OpCommit  Op = "commit"
	OpAbort   Op = "abort"
	OpSleep   Op = "sleep"
	OpAwake   Op = "awake"
	OpState   Op = "state"
	OpObjects Op = "objects"
	OpStats   Op = "stats"
	OpInfo    Op = "info" // per-object scheduling snapshot
	OpTxs     Op = "txs"  // transaction registry snapshot
	OpPing    Op = "ping"

	// Cross-shard commit and topology (sharded deployments; a single-node
	// server answers shards/prepare-capable queries with an error).
	OpPrepare Op = "prepare" // 2PC phase 1: stage the SST write set, enter in-doubt
	OpDecide  Op = "decide"  // 2PC phase 2: settle a prepared transaction
	OpReplay  Op = "replay"  // re-apply a logged decision after participant recovery
	OpShards  Op = "shards"  // shard topology and object routing

	// Gateway session control (every gtmd serves the gateway; a bare
	// wire.Server answers both with an error). gw.attach creates or resumes a logical session on
	// this connection; gw.detach parks it — the session survives, costing
	// bytes in the gateway's parked-session table instead of a connection
	// and a goroutine. See docs/GATEWAY.md.
	OpGwAttach Op = "gw.attach"
	OpGwDetach Op = "gw.detach"
)

// Mutating reports whether the op changes transaction state on the server,
// i.e. whether a blind retry could double-apply it. These are the ops the
// exactly-once replay window covers; everything else is idempotent and can
// be retried freely.
func (o Op) Mutating() bool {
	switch o {
	case OpBegin, OpInvoke, OpApply, OpCommit, OpAbort, OpSleep, OpAwake, OpPrepare, OpDecide:
		return true
	case OpAttach, OpRead, OpState, OpObjects, OpStats, OpInfo, OpTxs, OpPing, OpShards:
		return false
	case OpGwAttach, OpGwDetach:
		// Session control is idempotent by construction: attaching an
		// attached session re-binds it, detaching a parked session is a
		// no-op. Blind retries are safe, so no seq-window protection.
		return false
	case OpReplay:
		// Replay is a write, but an idempotent one: the backend probes the
		// decision marker and skips write sets already applied. The
		// recovering coordinator is its only caller and serializes per
		// transaction, so it needs no seq-window protection — which matters,
		// because replay targets transactions whose windows may be gone.
		return false
	}
	return false
}

// Value is the JSON form of a sem.Value.
type Value struct {
	Kind string  `json:"kind"` // "null", "int", "float", "string"
	Int  int64   `json:"int,omitempty"`
	F    float64 `json:"float,omitempty"`
	Str  string  `json:"str,omitempty"`
}

// FromSem converts a sem.Value.
func FromSem(v sem.Value) Value {
	switch v.Kind() {
	case sem.KindInt64:
		return Value{Kind: "int", Int: v.Int64()}
	case sem.KindFloat64:
		return Value{Kind: "float", F: v.Float64()}
	case sem.KindString:
		return Value{Kind: "string", Str: v.Text()}
	default:
		return Value{Kind: "null"}
	}
}

// ToSem converts back to a sem.Value.
func (v Value) ToSem() (sem.Value, error) {
	switch v.Kind {
	case "null", "":
		return sem.Null(), nil
	case "int":
		return sem.Int(v.Int), nil
	case "float":
		return sem.Float(v.F), nil
	case "string":
		return sem.Str(v.Str), nil
	default:
		return sem.Value{}, fmt.Errorf("wire: unknown value kind %q", v.Kind)
	}
}

// ClassNames maps protocol class names to sem classes.
var classNames = map[string]sem.Class{
	"read":          sem.Read,
	"insert/delete": sem.InsertDelete,
	"assign":        sem.Assign,
	"add/sub":       sem.AddSub,
	"mul/div":       sem.MulDiv,
}

// ParseClass resolves a protocol class name.
func ParseClass(name string) (sem.Class, error) {
	c, ok := classNames[name]
	if !ok {
		return 0, fmt.Errorf("wire: unknown operation class %q", name)
	}
	return c, nil
}

// ClassName renders a sem class as its protocol name.
func ClassName(c sem.Class) string {
	switch c {
	case sem.Read:
		return "read"
	case sem.InsertDelete:
		return "insert/delete"
	case sem.Assign:
		return "assign"
	case sem.AddSub:
		return "add/sub"
	case sem.MulDiv:
		return "mul/div"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Request is a client → server message.
type Request struct {
	Op      Op     `json:"op"`
	Tx      string `json:"tx,omitempty"`
	Object  string `json:"object,omitempty"`
	Class   string `json:"class,omitempty"`
	Member  string `json:"member,omitempty"`
	Operand *Value `json:"operand,omitempty"`
	// Seq is the per-transaction sequence number of a mutating request
	// (begin, invoke, apply, commit, abort, sleep, awake). A client that
	// stamps Seq with a strictly increasing value per transaction may retry
	// a request it never got an answer for: if the server already executed
	// that (tx, seq) it replays the recorded response instead of executing
	// again. Zero means "legacy client, no dedup".
	Seq uint64 `json:"seq,omitempty"`
	// Decision is the coordinator's verdict for a decide op: true commits
	// the staged write set, false aborts the prepared transaction.
	Decision bool `json:"decision,omitempty"`
	// Writes carries SST writes: extra writes riding the decided SST (the
	// coordinator's decision marker) on decide, the logged write set on
	// replay.
	Writes []SSTWriteJSON `json:"writes,omitempty"`
	// Marker is the decision-marker write a replay probes before applying.
	Marker *SSTWriteJSON `json:"marker,omitempty"`
	// Session names the logical gateway session a request belongs to.
	// gw.attach creates or resumes it; on later requests it routes the
	// op to the session's owner bookkeeping. Empty means the legacy
	// one-session-per-connection flow (and, on a gateway, the strict
	// in-order response discipline of a plain server).
	Session string `json:"session,omitempty"`
	// Tenant is the quota bucket a gw.attach charges its session to;
	// empty means the default tenant. Ignored outside gw.attach.
	Tenant string `json:"tenant,omitempty"`
	// ID correlates a multiplexed request with its response: a gateway
	// may answer requests that carry a non-zero ID out of order, echoing
	// the ID in Response.ID. Requests with ID 0 are answered strictly in
	// order, like a plain server.
	ID uint64 `json:"id,omitempty"`
	// ReadOnly on a begin asks for a multiversion snapshot session instead
	// of a GTM transaction: reads are served lock- and monitor-free from
	// committed version chains pinned at begin time. Such a session accepts
	// only read-class invokes and reads; commit and abort both just release
	// the snapshot's pin. Ignored on every other op.
	ReadOnly bool `json:"read_only,omitempty"`

	// read is when the server read this frame, the start of its
	// wire_request_seconds sample; zero when observability is off.
	read time.Time
}

// SSTWriteJSON is the wire form of one Secure System Transaction write.
type SSTWriteJSON struct {
	Table  string `json:"table"`
	Key    string `json:"key"`
	Column string `json:"column"`
	Value  Value  `json:"value"`
}

// ShardStat describes one shard of a sharded deployment.
type ShardStat struct {
	Index   int    `json:"index"`
	Addr    string `json:"addr,omitempty"` // empty for in-process shards
	Objects int    `json:"objects"`
	Txs     int    `json:"txs"` // live (non-terminal) transactions
	Down    bool   `json:"down,omitempty"`

	// Replication + failover fields, populated for replicated shards.
	Role           string  `json:"role,omitempty"`  // "primary" (replica pair) or "solo"
	Epoch          uint64  `json:"epoch,omitempty"` // fencing epoch of the current primary
	ReplLSN        uint64  `json:"repl_lsn,omitempty"`
	ReplAcked      uint64  `json:"repl_acked,omitempty"`
	ReplLagBytes   uint64  `json:"repl_lag_bytes,omitempty"`
	ReplLagSeconds float64 `json:"repl_lag_seconds,omitempty"`
	ReplDegraded   bool    `json:"repl_degraded,omitempty"` // semi-sync fell back to async
	Promotions     uint64  `json:"promotions,omitempty"`
	InDoubt        int     `json:"in_doubt,omitempty"`         // logged 2PC decisions pending on this shard
	HeartbeatAgeMS int64   `json:"heartbeat_age_ms,omitempty"` // since the failure detector last heard from it (-1: never)
	MissedBeats    int     `json:"heartbeat_misses,omitempty"` // consecutive failed probes
}

// TxOpJSON is a (transaction, operation) pair in an object snapshot.
type TxOpJSON struct {
	Tx     string `json:"tx"`
	Class  string `json:"class"`
	Member string `json:"member,omitempty"`
}

// ObjectInfoJSON is the wire form of core.ObjectInfo.
type ObjectInfoJSON struct {
	ID         string           `json:"id"`
	Members    map[string]Value `json:"members,omitempty"`
	Pending    []TxOpJSON       `json:"pending,omitempty"`
	Waiting    []TxOpJSON       `json:"waiting,omitempty"`
	Committing []TxOpJSON       `json:"committing,omitempty"`
	Sleeping   []string         `json:"sleeping,omitempty"`
	CommitQ    []string         `json:"commit_q,omitempty"`
}

// TxSummaryJSON is the wire form of one registry entry.
type TxSummaryJSON struct {
	ID       string   `json:"id"`
	State    string   `json:"state"`
	Reason   string   `json:"reason,omitempty"`
	Objects  []string `json:"objects,omitempty"`
	Priority int      `json:"priority,omitempty"`
}

// Response is a server → client message.
type Response struct {
	OK      bool              `json:"ok"`
	Err     string            `json:"err,omitempty"`
	Granted bool              `json:"granted,omitempty"`
	Resumed bool              `json:"resumed,omitempty"`
	Value   *Value            `json:"value,omitempty"`
	State   string            `json:"state,omitempty"`
	Objects []string          `json:"objects,omitempty"`
	Stats   map[string]uint64 `json:"stats,omitempty"`
	Metrics map[string]uint64 `json:"metrics,omitempty"` // live obs snapshot (stats op, when enabled)
	Info    *ObjectInfoJSON   `json:"info,omitempty"`
	Txs     []TxSummaryJSON   `json:"txs,omitempty"`
	// Replayed marks a response served from the exactly-once window rather
	// than by executing the request again (the retried request had already
	// been executed).
	Replayed bool `json:"replayed,omitempty"`
	// Writes is the staged SST write set a successful prepare returns.
	Writes []SSTWriteJSON `json:"writes,omitempty"`
	// Applied reports whether a replay actually applied the write set
	// (false: the decision marker showed it already durable).
	Applied bool `json:"applied,omitempty"`
	// Shards is the topology a shards op returns.
	Shards []ShardStat `json:"shards,omitempty"`
	// Shard is the route lookup result (shards op with an object set).
	Shard *int `json:"shard,omitempty"`
	// ID echoes the request's correlation id on multiplexed connections.
	ID uint64 `json:"id,omitempty"`
	// Session echoes the session id a gw.attach bound. A gw.attach that
	// resumed a parked session (rather than creating a fresh one) also
	// sets Resumed.
	Session string `json:"session,omitempty"`
	// OwnedTxs lists the transactions a resumed session still owns, so a
	// reconnecting client knows what to re-attach and awaken.
	OwnedTxs []string `json:"owned_txs,omitempty"`
	// RetryAfterMS is the backpressure hint on an admission rejection:
	// the client should back off at least this long before retrying.
	// Always accompanied by ok:false and a "retry after" error.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrRetryAfter classifies admission rejections: the gateway shed the
// request under load instead of queueing it unboundedly. Match with
// errors.Is; the concrete *RetryAfterError carries the backoff hint.
var ErrRetryAfter = errors.New("wire: retry after")

// RetryAfterError is the typed form of a gateway's backpressure rejection.
// The client should wait at least After before retrying; Reason names the
// saturated resource ("quota", "tenant", "lane", "sessions").
type RetryAfterError struct {
	After  time.Duration
	Reason string
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("wire: retry after %s (%s saturated)", e.After, e.Reason)
}

// Is makes errors.Is(err, ErrRetryAfter) match.
func (e *RetryAfterError) Is(target error) bool { return target == ErrRetryAfter }

// RetryAfterResponse builds the protocol form of a backpressure rejection.
func RetryAfterResponse(after time.Duration, reason string) *Response {
	return &Response{
		Err:          (&RetryAfterError{After: after, Reason: reason}).Error(),
		RetryAfterMS: after.Milliseconds(),
	}
}

// AsRetryAfter reconstructs the typed error from a decoded response, or nil
// if the response is not a backpressure rejection.
func AsRetryAfter(resp *Response) *RetryAfterError {
	if resp == nil || resp.OK || resp.RetryAfterMS <= 0 {
		return nil
	}
	reason := "load"
	if i := strings.Index(resp.Err, "("); i >= 0 {
		reason = strings.TrimSuffix(strings.TrimSuffix(resp.Err[i+1:], ")"), " saturated")
	}
	return &RetryAfterError{After: time.Duration(resp.RetryAfterMS) * time.Millisecond, Reason: reason}
}

// AsError is the error a client sees for a decoded response: nil when it
// is OK, a *RetryAfterError for a backpressure rejection, otherwise the
// server's message.
func AsError(resp *Response) error {
	if resp.OK {
		return nil
	}
	if ra := AsRetryAfter(resp); ra != nil {
		return ra
	}
	return errors.New(resp.Err)
}

// WriteMsg frames v as [u32 length][JSON].
func WriteMsg(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadMsg reads one frame into v.
func ReadMsg(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("wire: unmarshal: %w", err)
	}
	return nil
}
