package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

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
// — and therefore the replication stream — so a restarted shard, or a
// promoted follower, reconstructs its sleeping transactions instead of
// losing them.
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
	// Transactions snapshots the shard's registry; nil while the shard is
	// down or unreachable.
	Transactions() []wire.TxSummaryJSON
	// Objects lists the object ids this shard owns; nil while down.
	Objects() []string
	// ObjectInfo snapshots one owned object.
	ObjectInfo(object string) (*wire.ObjectInfoJSON, error)
	// Stats returns the shard's counters; nil while down.
	Stats() map[string]uint64
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
// reopens from the persistence directory exactly like a process restart
// and reconstructs the sleeping transactions its sleep journal recorded.
//
// Every Kill and every (re)start begins a new generation. A session
// belongs to the generation that began it and fails with ErrShardDown
// once that generation is gone, so a caller holding it re-resolves
// instead of talking to a dead manager.
type LocalShard struct {
	cfg  LocalConfig
	logf func(format string, args ...any) // journal and adoption events; silent unless ReplicaConfig.Logf sets it

	// lifeMu serializes the coarse lifecycle transitions (Kill, Restart,
	// Close, and a ReplicaShard's Promote); mu guards the hot-path state
	// below. A transition tears a whole stack down and builds the next one
	// up, so lifeMu sits above every other lock in the program — nothing
	// that holds another lock ever calls back into the lifecycle methods.
	//
	//gtmlint:lockorder shard.LocalShard.lifeMu -> shard.LocalShard.mu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> shard.ReplicaShard.replMu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> core.monitor.mu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> core.Client.mu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> core.sstExecutor.mu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> core.mvccState.snapMu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> ldbs.DB.ckptMu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> ldbs.DB.mu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> ldbs.lockManager.mu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> ldbs.wal.mu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> ldbs.wal.syncMu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> ldbs.replHub.mu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> ldbs.ReplSource.mu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> ldbs.Replica.mu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> store.regMu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> store.bindMu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> ldbs.replStreamMu
	//gtmlint:lockorder shard.LocalShard.lifeMu -> obs.Registry.mu
	lifeMu sync.Mutex

	mu       sync.Mutex
	gen      uint64 // bumped on every transition; stales old sessions
	cur      *stack // nil while down
	sessions map[string]*session
	adopted  map[string]*adoptedTx
}

// stack is one generation's GTM+LDBS stack.
type stack struct {
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

// OpenLocal builds and starts an in-process shard. A first open purges the
// sleep journal instead of adopting it: a fresh process has a fresh GTM,
// so the sleepers an earlier process life journaled are already gone.
// Only Restart (and a promotion) adopts journaled sleepers.
func OpenLocal(cfg LocalConfig) (*LocalShard, error) {
	s := &LocalShard{cfg: cfg, logf: func(string, ...any) {}}
	st, err := s.open()
	if err != nil {
		return nil, err
	}
	if err := purgeSleepJournal(st.db); err != nil {
		st.close()
		return nil, fmt.Errorf("shard %d: purge sleep journal: %w", cfg.Index, err)
	}
	s.install(st, nil)
	return s, nil
}

// open builds one generation's stack from s.cfg without serving it.
func (s *LocalShard) open() (*stack, error) {
	schemas := HiddenSchemas(s.cfg.Schemas)
	st := &stack{}
	var err error
	if s.cfg.Dir != "" {
		st.pers = &ldbs.Persistence{Dir: s.cfg.Dir, Obs: s.cfg.Obs,
			Store: s.cfg.Store, PageCacheBytes: s.cfg.PageCacheBytes}
		st.db, err = st.pers.Open(schemas)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s.cfg.Index, err)
		}
	} else {
		st.db = ldbs.Open(ldbs.Options{Obs: s.cfg.Obs})
		for _, sc := range schemas {
			if err := st.db.CreateTable(sc); err != nil {
				return nil, fmt.Errorf("shard %d: %w", s.cfg.Index, err)
			}
		}
	}
	if s.cfg.Seed != nil {
		if err := s.cfg.Seed(st.db); err != nil {
			st.close()
			return nil, fmt.Errorf("shard %d: seed: %w", s.cfg.Index, err)
		}
	}

	store := core.NewLDBSStore(st.db)
	store.UpsertTables = map[string]bool{MarkerTable: true}
	opts := s.cfg.ManagerOpts
	if s.cfg.Observability != nil {
		opts = append(opts[:len(opts):len(opts)],
			core.WithObservability(s.cfg.Observability))
	} else if s.cfg.Obs != nil {
		opts = append(opts[:len(opts):len(opts)],
			core.WithObservability(core.NewObservability(s.cfg.Obs, 0)))
	}
	st.m = core.NewManager(store, opts...)
	st.backend = wire.NewManagerBackend(st.m)

	ids := make([]string, 0, len(s.cfg.Objects))
	for id := range s.cfg.Objects {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := st.m.RegisterAtomicObject(core.ObjectID(id), s.cfg.Objects[id]); err != nil {
			st.close()
			return nil, fmt.Errorf("shard %d: register %s: %w", s.cfg.Index, id, err)
		}
	}
	return st, nil
}

// close crashes the stack: its manager stops and its persistence closes.
// A crash takes the callers' connections with it; in process the discarded
// manager has to let them go itself. Abort what still can abort (prepared
// and SST-in-flight transactions refuse and stay in doubt), so nobody waits
// forever on a commit slot or a grant that a dead manager will never hand
// out.
func (st *stack) close() {
	if st.m != nil {
		st.m.Close()
		for _, ti := range st.m.Transactions() {
			if !ti.State.Terminal() {
				_ = st.m.Abort(ti.ID) // refusal: past its commit point, settled by recovery
			}
		}
	}
	if st.pers != nil {
		st.pers.Close()
	}
}

// install serves st as the next generation, with its adopted sleepers.
func (s *LocalShard) install(st *stack, adopted map[string]*adoptedTx) {
	s.mu.Lock()
	s.cur = st
	s.sessions = make(map[string]*session)
	s.adopted = adopted
	s.gen++
	s.mu.Unlock()
}

// kill ends the serving generation. Callers hold lifeMu.
func (s *LocalShard) kill() {
	s.mu.Lock()
	st := s.cur
	s.cur, s.sessions, s.adopted = nil, nil, nil
	s.gen++
	s.mu.Unlock()
	if st != nil {
		st.close()
	}
}

// restartAt crashes whatever generation serves, then opens the next one
// over dir and reconstructs its journaled sleepers before serving it.
// Callers hold lifeMu. It returns how many sleepers were adopted.
func (s *LocalShard) restartAt(dir string) (int, error) {
	s.kill()
	s.cfg.Dir = dir
	st, err := s.open()
	if err != nil {
		return 0, err
	}
	adopted := s.adoptSleepers(st)
	s.install(st, adopted)
	return len(adopted), nil
}

// Kill crashes the shard: every in-memory structure — live transactions,
// prepared write sets, permanent-value mirrors — is gone; only what the
// WAL fsynced survives, the sleep journal included. Calls on a killed
// shard fail with ErrShardDown until Restart.
func (s *LocalShard) Kill() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.kill()
}

// Restart recovers the shard from its persistence directory and
// reconstructs its sleeping transactions from the sleep journal. The
// caller (the cluster) must resolve in-doubt decisions before routing new
// work here.
func (s *LocalShard) Restart() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	_, err := s.restartAt(s.cfg.Dir)
	return err
}

// Close shuts the shard down for good.
func (s *LocalShard) Close() { s.Kill() }

// Checkpoint writes a checkpoint of the shard's database, truncating its
// WAL. No-op for volatile or down shards.
func (s *LocalShard) Checkpoint() error {
	st, err := s.up()
	if err != nil || st.pers == nil {
		return nil
	}
	return st.pers.Checkpoint(st.db)
}

// DB exposes the shard's data layer for oracles and seeding checks; nil
// while the shard is down.
func (s *LocalShard) DB() *ldbs.DB {
	if st, err := s.up(); err == nil {
		return st.db
	}
	return nil
}

// Manager exposes the shard's GTM; nil while the shard is down.
func (s *LocalShard) Manager() *core.Manager {
	if st, err := s.up(); err == nil {
		return st.m
	}
	return nil
}

// up returns the serving stack, or ErrShardDown.
func (s *LocalShard) up() (*stack, error) {
	s.mu.Lock()
	st := s.cur
	s.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("%w (shard %d)", ErrShardDown, s.cfg.Index)
	}
	return st, nil
}

// Index implements Shard.
func (s *LocalShard) Index() int { return s.cfg.Index }

// Addr implements Shard; in-process shards have no address.
func (s *LocalShard) Addr() string { return "" }

// Down implements Shard.
func (s *LocalShard) Down() bool {
	_, err := s.up()
	return err != nil
}

// Ping implements Shard: an in-process shard is alive iff it is up.
func (s *LocalShard) Ping() error {
	_, err := s.up()
	return err
}

// Begin implements Shard. A transaction id with an adopted sleeper resumes
// that sleeper — the re-resolution path after a restart or promotion: the
// returning client finds its transaction alive on the new generation.
func (s *LocalShard) Begin(tx string) (Session, error) {
	s.mu.Lock()
	st, gen := s.cur, s.gen
	a := s.adopted[tx]
	delete(s.adopted, tx)
	s.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("%w (shard %d)", ErrShardDown, s.cfg.Index)
	}
	sess := &session{shard: s, gen: gen, tx: tx}
	if a != nil {
		sess.c, sess.ops, sess.journaled = a.client, a.ops, true
	} else {
		c, err := st.m.BeginClient(core.TxID(tx))
		if err != nil {
			return nil, err
		}
		sess.c = c
	}
	s.mu.Lock()
	if gen == s.gen {
		s.sessions[tx] = sess
	}
	s.mu.Unlock()
	return sess, nil
}

// Decide implements Shard. The logged decision supersedes any adopted
// sleeper under the same id.
func (s *LocalShard) Decide(tx string, commit bool, extra []wire.SSTWriteJSON) error {
	st, err := s.up()
	if err != nil {
		return err
	}
	ws, err := wire.ToCoreWrites(extra)
	if err != nil {
		return err
	}
	s.dropAdopted(tx)
	deleteSleepRow(st.db, tx)
	return st.m.Decide(core.TxID(tx), commit, ws...)
}

// Replay implements Shard, with the same adopted-sleeper eviction.
func (s *LocalShard) Replay(tx string, marker wire.SSTWriteJSON, writes []wire.SSTWriteJSON) (bool, error) {
	st, err := s.up()
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
	s.dropAdopted(tx)
	deleteSleepRow(st.db, tx)
	return st.m.ReplayDecided(core.TxID(tx), mk, ws)
}

// TxState implements Shard.
func (s *LocalShard) TxState(tx string) (core.State, error) {
	st, err := s.up()
	if err != nil {
		return 0, err
	}
	return st.backend.TxState(tx)
}

// Sleep implements Shard: through the journaling session when one is live,
// so the by-id disconnection path journals too.
func (s *LocalShard) Sleep(tx string) error {
	s.mu.Lock()
	sess := s.sessions[tx]
	s.mu.Unlock()
	if sess != nil {
		return sess.Sleep()
	}
	st, err := s.up()
	if err != nil {
		return err
	}
	return st.backend.Sleep(tx)
}

// Transactions implements Shard.
func (s *LocalShard) Transactions() []wire.TxSummaryJSON {
	st, err := s.up()
	if err != nil {
		return nil
	}
	return st.backend.Transactions()
}

// Objects implements Shard.
func (s *LocalShard) Objects() []string {
	st, err := s.up()
	if err != nil {
		return nil
	}
	return st.backend.Objects()
}

// ObjectInfo implements Shard.
func (s *LocalShard) ObjectInfo(object string) (*wire.ObjectInfoJSON, error) {
	st, err := s.up()
	if err != nil {
		return nil, err
	}
	return st.backend.ObjectInfo(object)
}

// Stats implements Shard.
func (s *LocalShard) Stats() map[string]uint64 {
	st, err := s.up()
	if err != nil {
		return nil
	}
	return st.backend.Stats()
}

// dropSession forgets a finished session of generation gen.
func (s *LocalShard) dropSession(gen uint64, tx string) {
	s.mu.Lock()
	if gen == s.gen {
		delete(s.sessions, tx)
	}
	s.mu.Unlock()
}
