package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"preserial/internal/core"
	"preserial/internal/sem"
)

// Session is one transaction's synchronous handle as the server sees it.
// The single-node deployment backs it with a *core.Client; a sharded
// deployment backs it with a cluster transaction that fans the same calls
// out to the owning shards. *core.Client satisfies Session as-is.
type Session interface {
	Invoke(ctx context.Context, obj core.ObjectID, op sem.Op) error
	Read(obj core.ObjectID) (sem.Value, error)
	Apply(obj core.ObjectID, operand sem.Value) error
	Commit(ctx context.Context) error
	Abort() error
	Sleep() error
	Awake() (resumed bool, err error)
}

// TwoPhaseSession is the optional cross-shard commit surface of a Session:
// Prepare runs the local commit pipeline up to (excluding) the SST and
// returns the staged write set; Decide settles the in-doubt transaction
// with the coordinator's verdict, extra writes (the decision marker)
// riding in the decided SST. Sessions of participant shards implement it;
// a router's client-facing sessions need not.
type TwoPhaseSession interface {
	Prepare(ctx context.Context) ([]SSTWriteJSON, error)
	Decide(ctx context.Context, commit bool, extra []SSTWriteJSON) error
}

// Backend is what a Server fronts: a single core.Manager (managerBackend,
// via NewServer) or a shard cluster (shard.Cluster, via NewBackendServer).
// Methods speak the protocol's JSON-level types so implementations on the
// far side of another wire hop need no core round trips.
type Backend interface {
	// Begin starts a transaction and returns its session.
	Begin(tx string) (Session, error)
	// TxState reports the transaction's current state.
	TxState(tx string) (core.State, error)
	// Sleep parks a transaction by id (the disconnection path — the owning
	// session may be gone with its connection).
	Sleep(tx string) error
	// SleepAllLive parks every Active/Waiting transaction (graceful drain)
	// and returns the ids it put to sleep.
	SleepAllLive() []string
	// Transactions snapshots the registry.
	Transactions() []TxSummaryJSON
	// Objects lists managed object ids.
	Objects() []string
	// ObjectInfo snapshots one object's scheduling state.
	ObjectInfo(object string) (*ObjectInfoJSON, error)
	// Stats returns the backend's counters in wire form.
	Stats() map[string]uint64
}

// SnapshotBackend is the optional multiversion read surface: BeginSnapshot
// opens a session whose reads come from committed version chains pinned at
// begin time — no 2PL invoke, no monitor entry, no interference with
// concurrent committers. The session accepts only read-class invokes;
// Commit and Abort both just release the snapshot's GC pin.
type SnapshotBackend interface {
	BeginSnapshot(tx string) (Session, error)
	// SnapshotRead is the one-shot form: pin, read one member, release —
	// a single round trip where the transactional path needs
	// begin/invoke/read/commit.
	SnapshotRead(object, member string) (Value, error)
}

// ReadOnlySession marks sessions served by the snapshot read path, so the
// engine can tell them apart from backend transactions (they are invisible
// to the backend's registry: only the engine can close an orphaned one).
type ReadOnlySession interface {
	ReadOnly() bool
}

// ReplayBackend is the optional recovery surface: re-apply a logged commit
// decision after a participant restart. Idempotent — the backend probes the
// decision marker and skips writes already applied.
type ReplayBackend interface {
	ReplayDecided(tx string, marker SSTWriteJSON, writes []SSTWriteJSON) (applied bool, err error)
}

// ShardBackend is the optional topology surface of sharded deployments.
type ShardBackend interface {
	// Topology describes every shard.
	Topology() []ShardStat
	// Route reports which shard owns an object id.
	Route(object string) (int, error)
}

// FromCoreWrite converts an SST write to its wire form.
func FromCoreWrite(w core.SSTWrite) SSTWriteJSON {
	return SSTWriteJSON{Table: w.Ref.Table, Key: w.Ref.Key, Column: w.Ref.Column, Value: FromSem(w.Value)}
}

// FromCoreWrites converts a write batch to wire form.
func FromCoreWrites(ws []core.SSTWrite) []SSTWriteJSON {
	out := make([]SSTWriteJSON, len(ws))
	for i, w := range ws {
		out[i] = FromCoreWrite(w)
	}
	return out
}

// ToCore converts the wire form back to an SST write.
func (w SSTWriteJSON) ToCore() (core.SSTWrite, error) {
	v, err := w.Value.ToSem()
	if err != nil {
		return core.SSTWrite{}, err
	}
	return core.SSTWrite{Ref: core.StoreRef{Table: w.Table, Key: w.Key, Column: w.Column}, Value: v}, nil
}

// ToCoreWrites converts a wire write batch back to SST writes.
func ToCoreWrites(ws []SSTWriteJSON) ([]core.SSTWrite, error) {
	out := make([]core.SSTWrite, len(ws))
	for i, w := range ws {
		cw, err := w.ToCore()
		if err != nil {
			return nil, err
		}
		out[i] = cw
	}
	return out, nil
}

// NewManagerBackend adapts one core.Manager to the Backend contract. The
// returned backend also implements ReplayBackend, and its sessions
// TwoPhaseSession.
func NewManagerBackend(m *core.Manager) Backend { return managerBackend{m} }

// managerBackend adapts one core.Manager to the Backend contract — the
// single-node deployment NewServer wraps.
type managerBackend struct{ m *core.Manager }

// managerSession wraps a core.Client so Prepare/Decide speak wire types
// (the outer methods shadow the client's core-typed ones).
type managerSession struct{ *core.Client }

func (s managerSession) Prepare(ctx context.Context) ([]SSTWriteJSON, error) {
	writes, err := s.Client.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	return FromCoreWrites(writes), nil
}

func (s managerSession) Decide(ctx context.Context, commit bool, extra []SSTWriteJSON) error {
	ws, err := ToCoreWrites(extra)
	if err != nil {
		return err
	}
	return s.Client.Decide(ctx, commit, ws...)
}

func (b managerBackend) Begin(tx string) (Session, error) {
	c, err := b.m.BeginClient(core.TxID(tx))
	if err != nil {
		return nil, err
	}
	return managerSession{c}, nil
}

// BeginSnapshot opens a multiversion read-only session (SnapshotBackend).
func (b managerBackend) BeginSnapshot(tx string) (Session, error) {
	return &snapshotSession{
		snap:    b.m.BeginSnapshot(),
		members: make(map[core.ObjectID]string),
	}, nil
}

// SnapshotRead is the one-shot snapshot read (SnapshotBackend).
func (b managerBackend) SnapshotRead(object, member string) (Value, error) {
	v, err := b.m.SnapshotRead(core.ObjectID(object), member)
	if err != nil {
		return Value{}, err
	}
	return FromSem(v), nil
}

// snapshotSession adapts a *core.Snapshot to the Session contract. Invoke
// only records which member a read-class invocation named — there is
// nothing to grant, snapshot reads conflict with no one — and Read serves
// it from the pinned version chain. Mutating calls are refused.
type snapshotSession struct {
	snap *core.Snapshot

	mu      sync.Mutex // a gateway may run one session's requests on concurrent lanes
	members map[core.ObjectID]string
}

// ErrReadOnlyTx rejects mutating calls on a snapshot session.
var ErrReadOnlyTx = errors.New("wire: transaction is read-only")

func (s *snapshotSession) ReadOnly() bool { return true }

// Done reports whether the snapshot has been released (the engine does not
// ask; the bench module's session decorator forwards it).
func (s *snapshotSession) Done() bool { return s.snap.Closed() }

func (s *snapshotSession) Invoke(ctx context.Context, obj core.ObjectID, op sem.Op) error {
	if op.Class != sem.Read {
		return fmt.Errorf("%w: only read invocations allowed, got %s", ErrReadOnlyTx, ClassName(op.Class))
	}
	s.mu.Lock()
	s.members[obj] = op.Member
	s.mu.Unlock()
	return nil
}

func (s *snapshotSession) Read(obj core.ObjectID) (sem.Value, error) {
	s.mu.Lock()
	member, ok := s.members[obj]
	s.mu.Unlock()
	if !ok {
		return sem.Value{}, fmt.Errorf("wire: read of %s before its read invoke", obj)
	}
	return s.snap.Read(obj, member)
}

func (s *snapshotSession) Apply(obj core.ObjectID, operand sem.Value) error {
	return fmt.Errorf("%w: apply refused", ErrReadOnlyTx)
}

// Commit releases the snapshot pin — a read-only transaction has nothing
// to make durable. Abort is the same release.
func (s *snapshotSession) Commit(ctx context.Context) error { s.snap.Close(); return nil }
func (s *snapshotSession) Abort() error                     { s.snap.Close(); return nil }

func (s *snapshotSession) Sleep() error {
	return fmt.Errorf("%w: snapshots do not sleep; close and re-begin", ErrReadOnlyTx)
}

func (s *snapshotSession) Awake() (bool, error) {
	return false, fmt.Errorf("%w: snapshots do not sleep", ErrReadOnlyTx)
}

func (b managerBackend) TxState(tx string) (core.State, error) { return b.m.TxState(core.TxID(tx)) }
func (b managerBackend) Sleep(tx string) error                 { return b.m.Sleep(core.TxID(tx)) }

func (b managerBackend) SleepAllLive() []string {
	slept := b.m.SleepAllLive()
	out := make([]string, len(slept))
	for i, id := range slept {
		out[i] = string(id)
	}
	return out
}

func (b managerBackend) Transactions() []TxSummaryJSON {
	var txs []TxSummaryJSON
	for _, ti := range b.m.Transactions() {
		objs := make([]string, len(ti.Objects))
		for i, o := range ti.Objects {
			objs[i] = string(o)
		}
		sum := TxSummaryJSON{ID: string(ti.ID), State: ti.State.String(),
			Objects: objs, Priority: ti.Priority}
		if ti.State == core.StateAborted {
			sum.Reason = ti.Reason.String()
		}
		txs = append(txs, sum)
	}
	return txs
}

func (b managerBackend) Objects() []string {
	ids := b.m.Objects()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

func (b managerBackend) ObjectInfo(object string) (*ObjectInfoJSON, error) {
	info, err := b.m.ObjectInfo(core.ObjectID(object))
	if err != nil {
		return nil, err
	}
	out := &ObjectInfoJSON{ID: string(info.ID), Members: make(map[string]Value, len(info.Members))}
	for member, v := range info.Members {
		out.Members[member] = FromSem(v)
	}
	conv := func(in []core.TxOp) []TxOpJSON {
		res := make([]TxOpJSON, len(in))
		for i, to := range in {
			res[i] = TxOpJSON{Tx: string(to.Tx), Class: ClassName(to.Op.Class), Member: to.Op.Member}
		}
		return res
	}
	out.Pending = conv(info.Pending)
	out.Waiting = conv(info.Waiting)
	out.Committing = conv(info.Commiting)
	for _, tx := range info.Sleeping {
		out.Sleeping = append(out.Sleeping, string(tx))
	}
	for _, tx := range info.CommitQ {
		out.CommitQ = append(out.CommitQ, string(tx))
	}
	return out, nil
}

func (b managerBackend) Stats() map[string]uint64 {
	st := b.m.Stats()
	stats := map[string]uint64{
		"begun": st.Begun, "committed": st.Committed, "aborted": st.Aborted,
		"grants": st.Grants, "waits": st.Waits, "sleeps": st.Sleeps,
		"awakes": st.Awakes, "awake_aborts": st.AwakeAborts,
		"ssts": st.SSTs, "sst_failures": st.SSTFailures,
		"reconciled": st.Reconciled, "denied_admits": st.DeniedAdmits,
	}
	for reason, n := range st.AbortsBy {
		stats["aborts_"+reason.String()] = n
	}
	return stats
}

func (b managerBackend) ReplayDecided(tx string, marker SSTWriteJSON, writes []SSTWriteJSON) (bool, error) {
	m, err := marker.ToCore()
	if err != nil {
		return false, err
	}
	ws, err := ToCoreWrites(writes)
	if err != nil {
		return false, err
	}
	return b.m.ReplayDecided(core.TxID(tx), m, ws)
}
