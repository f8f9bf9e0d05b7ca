package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// MarkerTable is the hidden LDBS table holding cross-shard decision
// markers: one row per decided transaction, keyed by transaction id,
// created by the decided SST itself (upsert). Probing it is how recovery
// distinguishes "SST landed" from "SST never ran".
const MarkerTable = "__2pc"

// MarkerColumn is the marker table's single column.
const MarkerColumn = "Decided"

// MarkerWrite builds the decision-marker write the coordinator appends to
// a participant's decided SST.
func MarkerWrite(tx string) wire.SSTWriteJSON {
	return wire.SSTWriteJSON{Table: MarkerTable, Key: tx, Column: MarkerColumn,
		Value: wire.FromSem(sem.Int(1))}
}

// markerSchema declares the marker table.
func markerSchema() ldbs.Schema {
	return ldbs.Schema{
		Table:   MarkerTable,
		Columns: []ldbs.ColumnDef{{Name: MarkerColumn, Kind: sem.KindInt64}},
	}
}

// SleepTable is the hidden LDBS table journaling sleeping transactions:
// one row per sleeping transaction, keyed by transaction id, holding the
// granted invocations and applied operands as JSON. The rows ride the WAL
// — and therefore the replication stream — so a promoted follower can
// reconstruct its primary's sleeping transactions instead of losing them.
const SleepTable = "__sleep"

// SleepColumn is the sleep table's single column.
const SleepColumn = "State"

// sleepSchema declares the sleep-journal table.
func sleepSchema() ldbs.Schema {
	return ldbs.Schema{
		Table:   SleepTable,
		Columns: []ldbs.ColumnDef{{Name: SleepColumn, Kind: sem.KindString}},
	}
}

// ErrShardDown reports an operation against a killed (or unreachable)
// shard.
var ErrShardDown = errors.New("shard: shard is down")

// Session is one transaction's handle on one participant shard: the plain
// transaction surface plus the two-phase commit hooks.
type Session interface {
	wire.Session
	wire.TwoPhaseSession
	// Release drops per-transaction resources (a remote session's
	// connection); the transaction itself is untouched.
	Release()
}

// Shard is one partition of the object space as the cluster coordinator
// sees it: an in-process GTM+LDBS stack (LocalShard) or another gtmd
// process spoken to over the wire protocol (RemoteShard).
type Shard interface {
	// Index is the shard's position in the ring.
	Index() int
	// Addr is the shard's wire address; empty for in-process shards.
	Addr() string
	// Down reports whether the shard is currently unusable.
	Down() bool
	// Ping probes the shard's liveness — the failure detector's heartbeat.
	Ping() error
	// Begin starts a sub-transaction on this shard.
	Begin(tx string) (Session, error)
	// Decide settles a prepared sub-transaction without its session — the
	// in-doubt resolution path when the coordinator restarted but the
	// participant did not.
	Decide(tx string, commit bool, extra []wire.SSTWriteJSON) error
	// Replay re-applies a logged commit decision after the participant
	// itself restarted and lost the prepared state. Idempotent (marker
	// probe).
	Replay(tx string, marker wire.SSTWriteJSON, writes []wire.SSTWriteJSON) (applied bool, err error)
	// TxState reports a sub-transaction's state.
	TxState(tx string) (core.State, error)
	// Sleep parks a sub-transaction (disconnection semantics).
	Sleep(tx string) error
	// Sweep forgets long-terminal sub-transactions. Remote shards sweep
	// themselves (their own server's retention loop) and return nil.
	Sweep(olderThan time.Duration) []string
	// Transactions snapshots the shard's registry.
	Transactions() ([]wire.TxSummaryJSON, error)
	// Objects lists the object ids this shard owns.
	Objects() ([]string, error)
	// ObjectInfo snapshots one owned object.
	ObjectInfo(object string) (*wire.ObjectInfoJSON, error)
	// Stats returns the shard's counters.
	Stats() (map[string]uint64, error)
}

// LocalConfig describes one in-process shard.
type LocalConfig struct {
	// Index is the shard's ring position.
	Index int
	// Dir is the shard's persistence directory (WAL + checkpoints); empty
	// runs the shard on a volatile in-memory LDBS.
	Dir string
	// Store selects the storage driver by registered name ("mem", "disk");
	// empty means "mem". Only honored when Dir is set.
	Store string
	// PageCacheBytes bounds the disk driver's page cache (0 = driver
	// default). Ignored by the mem driver.
	PageCacheBytes int64
	// Schemas are the application tables (the marker table is added
	// automatically).
	Schemas []ldbs.Schema
	// Seed, when non-nil, populates the freshly opened database (called on
	// every open — check for surviving rows before inserting).
	Seed func(db *ldbs.DB) error
	// Objects maps the GTM object ids this shard owns to their backing
	// refs. Only objects routed to this shard belong here.
	Objects map[string]core.StoreRef
	// Obs, when non-nil, receives the shard's gtm_*/ldbs_* metric sets.
	// Shards may share one registry; their counters aggregate.
	Obs *obs.Registry
	// Observability, when non-nil, is used instead of deriving one from
	// Obs — so shards can share one event-trace ring (gtmd's /debug/trace
	// shows the whole cluster interleaved).
	Observability *core.Observability
	// ManagerOpts are extra core.Manager options (executors, policies).
	ManagerOpts []core.Option
}

// LocalShard is an in-process GTM+LDBS partition. Kill and Restart model
// a shard crash for recovery tests and chaos runs: Kill drops the whole
// in-memory state (manager, prepared transactions, mirrors), Restart
// reopens from the persistence directory exactly like a process restart.
type LocalShard struct {
	cfg LocalConfig

	mu      sync.Mutex
	down    bool
	pers    *ldbs.Persistence // nil when running in memory
	db      *ldbs.DB
	m       *core.Manager
	backend wire.Backend
}

// HiddenSchemas appends the coordination tables every shard database
// carries — decision markers and the sleep journal — unless the caller
// already declared them. A standalone follower (gtmd -replica-of) must
// declare them: its primary's WAL stream references these tables.
func HiddenSchemas(app []ldbs.Schema) []ldbs.Schema {
	return withHiddenSchemas(app)
}

// withHiddenSchemas appends the marker and sleep-journal tables unless the
// caller already declared them.
func withHiddenSchemas(app []ldbs.Schema) []ldbs.Schema {
	schemas := append([]ldbs.Schema{}, app...)
	hasMarker, hasSleep := false, false
	for _, sc := range schemas {
		switch sc.Table {
		case MarkerTable:
			hasMarker = true
		case SleepTable:
			hasSleep = true
		}
	}
	if !hasMarker {
		schemas = append(schemas, markerSchema())
	}
	if !hasSleep {
		schemas = append(schemas, sleepSchema())
	}
	return schemas
}

// OpenLocal builds and starts an in-process shard.
func OpenLocal(cfg LocalConfig) (*LocalShard, error) {
	s := &LocalShard{cfg: cfg}
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

// start brings up one generation of the shard's stack.
func (s *LocalShard) start() error {
	schemas := withHiddenSchemas(s.cfg.Schemas)

	var (
		pers *ldbs.Persistence
		db   *ldbs.DB
		err  error
	)
	if s.cfg.Dir != "" {
		pers = &ldbs.Persistence{Dir: s.cfg.Dir, Obs: s.cfg.Obs,
			Store: s.cfg.Store, PageCacheBytes: s.cfg.PageCacheBytes}
		db, err = pers.Open(schemas)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s.cfg.Index, err)
		}
	} else {
		db = ldbs.Open(ldbs.Options{Obs: s.cfg.Obs})
		for _, sc := range schemas {
			if err := db.CreateTable(sc); err != nil {
				return fmt.Errorf("shard %d: %w", s.cfg.Index, err)
			}
		}
	}
	if s.cfg.Seed != nil {
		if err := s.cfg.Seed(db); err != nil {
			if pers != nil {
				pers.Close()
			}
			return fmt.Errorf("shard %d: seed: %w", s.cfg.Index, err)
		}
	}

	store := core.NewLDBSStore(db)
	store.UpsertTables = map[string]bool{MarkerTable: true}
	opts := s.cfg.ManagerOpts
	if s.cfg.Observability != nil {
		opts = append(opts[:len(opts):len(opts)],
			core.WithObservability(s.cfg.Observability))
	} else if s.cfg.Obs != nil {
		opts = append(opts[:len(opts):len(opts)],
			core.WithObservability(core.NewObservability(s.cfg.Obs, 0)))
	}
	m := core.NewManager(store, opts...)

	ids := make([]string, 0, len(s.cfg.Objects))
	for id := range s.cfg.Objects {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := m.RegisterAtomicObject(core.ObjectID(id), s.cfg.Objects[id]); err != nil {
			m.Close()
			if pers != nil {
				pers.Close()
			}
			return fmt.Errorf("shard %d: register %s: %w", s.cfg.Index, id, err)
		}
	}

	s.mu.Lock()
	s.down = false
	s.pers, s.db, s.m = pers, db, m
	s.backend = wire.NewManagerBackend(m)
	s.mu.Unlock()
	return nil
}

// Kill crashes the shard: every in-memory structure — live transactions,
// prepared write sets, permanent-value mirrors — is gone; only what the
// WAL fsynced survives. Calls on a killed shard fail with ErrShardDown
// until Restart.
func (s *LocalShard) Kill() {
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		return
	}
	s.down = true
	pers, m := s.pers, s.m
	s.pers, s.db, s.m, s.backend = nil, nil, nil, nil
	s.mu.Unlock()
	if m != nil {
		m.Close()
		// A crash takes the callers' connections with it; in process the
		// discarded manager has to let them go itself. Abort what still can
		// abort (prepared and SST-in-flight transactions refuse and stay in
		// doubt), so nobody waits forever on a commit slot or a grant that a
		// dead manager will never hand out.
		for _, ti := range m.Transactions() {
			if !ti.State.Terminal() {
				_ = m.Abort(ti.ID) // refusal: past its commit point, settled by recovery
			}
		}
	}
	if pers != nil {
		pers.Close()
	}
}

// Restart recovers the shard from its persistence directory. The caller
// (the cluster) must resolve in-doubt decisions before routing new work
// here.
func (s *LocalShard) Restart() error { return s.start() }

// Checkpoint writes a checkpoint of the shard's database, truncating its
// WAL. No-op for volatile or down shards.
func (s *LocalShard) Checkpoint() error {
	s.mu.Lock()
	pers, db := s.pers, s.db
	s.mu.Unlock()
	if pers == nil || db == nil {
		return nil
	}
	return pers.Checkpoint(db)
}

// Close shuts the shard down for good.
func (s *LocalShard) Close() { s.Kill() }

// DB exposes the shard's data layer for oracles and seeding checks; nil
// while the shard is down.
func (s *LocalShard) DB() *ldbs.DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db
}

// Manager exposes the shard's GTM; nil while the shard is down.
func (s *LocalShard) Manager() *core.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m
}

// up returns the current backend and manager, or ErrShardDown.
func (s *LocalShard) up() (wire.Backend, *core.Manager, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down || s.backend == nil {
		return nil, nil, fmt.Errorf("%w (shard %d)", ErrShardDown, s.cfg.Index)
	}
	return s.backend, s.m, nil
}

// Index implements Shard.
func (s *LocalShard) Index() int { return s.cfg.Index }

// Addr implements Shard; in-process shards have no address.
func (s *LocalShard) Addr() string { return "" }

// Down implements Shard.
func (s *LocalShard) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Ping implements Shard: an in-process shard is alive iff it is up.
func (s *LocalShard) Ping() error {
	_, _, err := s.up()
	return err
}

// localSession adapts the manager backend's session to the shard Session.
type localSession struct {
	wire.Session
	tp wire.TwoPhaseSession
}

func (l localSession) Prepare(ctx context.Context) ([]wire.SSTWriteJSON, error) {
	return l.tp.Prepare(ctx)
}
func (l localSession) Decide(ctx context.Context, commit bool, extra []wire.SSTWriteJSON) error {
	return l.tp.Decide(ctx, commit, extra)
}
func (l localSession) Release() {}

// Begin implements Shard.
func (s *LocalShard) Begin(tx string) (Session, error) {
	b, _, err := s.up()
	if err != nil {
		return nil, err
	}
	sess, err := b.Begin(tx)
	if err != nil {
		return nil, err
	}
	tp, ok := sess.(wire.TwoPhaseSession)
	if !ok {
		return nil, fmt.Errorf("shard %d: backend session lacks two-phase support", s.cfg.Index)
	}
	return localSession{Session: sess, tp: tp}, nil
}

// Decide implements Shard.
func (s *LocalShard) Decide(tx string, commit bool, extra []wire.SSTWriteJSON) error {
	_, m, err := s.up()
	if err != nil {
		return err
	}
	ws, err := wire.ToCoreWrites(extra)
	if err != nil {
		return err
	}
	return m.Decide(core.TxID(tx), commit, ws...)
}

// Replay implements Shard.
func (s *LocalShard) Replay(tx string, marker wire.SSTWriteJSON, writes []wire.SSTWriteJSON) (bool, error) {
	_, m, err := s.up()
	if err != nil {
		return false, err
	}
	mk, err := marker.ToCore()
	if err != nil {
		return false, err
	}
	ws, err := wire.ToCoreWrites(writes)
	if err != nil {
		return false, err
	}
	return m.ReplayDecided(core.TxID(tx), mk, ws)
}

// TxState implements Shard.
func (s *LocalShard) TxState(tx string) (core.State, error) {
	b, _, err := s.up()
	if err != nil {
		return 0, err
	}
	return b.TxState(tx)
}

// Sleep implements Shard.
func (s *LocalShard) Sleep(tx string) error {
	b, _, err := s.up()
	if err != nil {
		return err
	}
	return b.Sleep(tx)
}

// Sweep implements Shard.
func (s *LocalShard) Sweep(olderThan time.Duration) []string {
	b, _, err := s.up()
	if err != nil {
		return nil
	}
	return b.Sweep(olderThan)
}

// Transactions implements Shard.
func (s *LocalShard) Transactions() ([]wire.TxSummaryJSON, error) {
	b, _, err := s.up()
	if err != nil {
		return nil, err
	}
	return b.Transactions(), nil
}

// Objects implements Shard.
func (s *LocalShard) Objects() ([]string, error) {
	b, _, err := s.up()
	if err != nil {
		return nil, err
	}
	return b.Objects(), nil
}

// ObjectInfo implements Shard.
func (s *LocalShard) ObjectInfo(object string) (*wire.ObjectInfoJSON, error) {
	b, _, err := s.up()
	if err != nil {
		return nil, err
	}
	return b.ObjectInfo(object)
}

// Stats implements Shard.
func (s *LocalShard) Stats() (map[string]uint64, error) {
	b, _, err := s.up()
	if err != nil {
		return nil, err
	}
	return b.Stats(), nil
}
