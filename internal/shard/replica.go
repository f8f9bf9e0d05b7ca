package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// Shard roles as reported in topology.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
	// RolePromoted is a primary that used to be the follower: the pair went
	// through a failover and currently runs without a replica of its own.
	RolePromoted = "promoted"
)

// ReplicaInfo is the replication-side view of one shard, surfaced through
// the cluster topology (gtmcli cluster) and the repl_* gauges.
type ReplicaInfo struct {
	Role       string
	Epoch      uint64
	LSN        uint64
	AckedLSN   uint64
	LagBytes   uint64
	LagSeconds float64
	Followers  int
	Degraded   bool
	Promotions uint64
}

// ReplicaInfoProvider is implemented by shards that know their replication
// state; the cluster fills topology entries from it when present.
type ReplicaInfoProvider interface {
	ReplicaInfo() (ReplicaInfo, bool)
}

// promoter is implemented by shards the failure detector can fail over.
type promoter interface {
	Promote() error
}

// ReplicaConfig describes a primary/follower shard pair.
type ReplicaConfig struct {
	// Local configures the primary stack. Dir is required — replication
	// ships the primary's WAL, so there must be one.
	Local LocalConfig
	// FollowerDir is the follower LDBS's persistence directory; must differ
	// from Local.Dir.
	FollowerDir string
	// AsyncRepl turns off semi-synchronous commits. The default (semi-sync)
	// holds each commit until the follower acknowledged its frames, so a
	// promoted follower is guaranteed to hold every acknowledged commit —
	// including sleep-journal rows and 2PC decision markers.
	AsyncRepl bool
	// AckTimeout bounds the semi-sync wait before the stream degrades to
	// async (zero: the ldbs default).
	AckTimeout time.Duration
	// Logf receives replication and promotion events; nil silences them.
	Logf func(format string, args ...any)
}

// adoptedTx is a sleeping transaction reconstructed on a freshly opened
// stack from its replicated sleep-journal row, waiting for its client to
// come back and Begin the same id again.
type adoptedTx struct {
	client *core.Client
	ops    []sleepOp
}

// ReplicaShard is a Shard made of a primary LocalShard and a follower LDBS
// kept in sync by WAL shipping. Kill crashes the primary (the follower
// keeps its replicated state); Promote fences the dead primary behind a new
// replication epoch, opens a full stack on the follower's directory at its
// acked LSN, and reconstructs the primary's sleeping transactions from the
// replicated sleep journal.
type ReplicaShard struct {
	cfg  ReplicaConfig
	logf func(format string, args ...any)

	// lifeMu serializes the coarse lifecycle transitions (Kill, Restart,
	// Promote, Close); mu guards the hot-path state below. A lifecycle
	// transition tears whole stacks down and builds them back up, so
	// lifeMu sits above every other lock in the program — nothing that
	// holds another lock ever calls back into the lifecycle methods.
	//
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> shard.ReplicaShard.mu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> shard.LocalShard.mu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> core.monitor.mu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> core.Client.mu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> core.sstExecutor.mu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> core.mvccState.snapMu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> ldbs.DB.ckptMu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> ldbs.DB.mu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> ldbs.lockManager.mu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> ldbs.wal.mu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> ldbs.wal.syncMu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> ldbs.replHub.mu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> ldbs.ReplSource.mu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> ldbs.Replica.mu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> store.regMu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> store.bindMu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> ldbs.replStreamMu
	//gtmlint:lockorder shard.ReplicaShard.lifeMu -> obs.Registry.mu
	lifeMu sync.Mutex

	promotions  atomic.Uint64
	promCounter *obs.Counter // nil without observability

	mu       sync.Mutex
	gen      uint64 // bumped on every stack transition; stales old sessions
	primary  *LocalShard
	src      *ldbs.ReplSource
	follower *ldbs.Replica // nil once promoted
	promoted bool
	epoch    uint64
	stopRepl chan struct{}
	replDone chan struct{}
	sessions map[string]*replicaSession
	adopted  map[string]*adoptedTx
}

// OpenReplicaShard builds the pair and starts shipping the primary's WAL.
func OpenReplicaShard(cfg ReplicaConfig) (*ReplicaShard, error) {
	if cfg.Local.Dir == "" {
		return nil, errors.New("shard: replica pair needs a primary persistence dir")
	}
	if cfg.FollowerDir == "" || cfg.FollowerDir == cfg.Local.Dir {
		return nil, errors.New("shard: replica pair needs a distinct follower dir")
	}
	s := &ReplicaShard{
		cfg:      cfg,
		logf:     cfg.Logf,
		sessions: make(map[string]*replicaSession),
		adopted:  make(map[string]*adoptedTx),
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}

	epoch, err := ldbs.ReadReplEpoch(cfg.Local.Dir)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", cfg.Local.Index, err)
	}
	if epoch == 0 {
		epoch = 1
		if err := ldbs.WriteReplEpoch(cfg.Local.Dir, epoch); err != nil {
			return nil, fmt.Errorf("shard %d: %w", cfg.Local.Index, err)
		}
	}

	primary, err := OpenLocal(cfg.Local)
	if err != nil {
		return nil, err
	}
	src, err := ldbs.NewReplSource(primary.DB(), s.srcOpts(epoch))
	if err != nil {
		primary.Close()
		return nil, fmt.Errorf("shard %d: %w", cfg.Local.Index, err)
	}
	follower, err := ldbs.OpenReplica(ldbs.ReplicaOptions{
		Dir:            cfg.FollowerDir,
		Schemas:        withHiddenSchemas(cfg.Local.Schemas),
		Store:          cfg.Local.Store,
		PageCacheBytes: cfg.Local.PageCacheBytes,
		Logf:           s.logf,
	})
	if err != nil {
		src.Close()
		primary.Close()
		return nil, fmt.Errorf("shard %d: follower: %w", cfg.Local.Index, err)
	}

	s.primary, s.src, s.follower, s.epoch = primary, src, follower, epoch
	s.gen = 1
	s.startReplLocked()
	s.registerMetrics()
	return s, nil
}

// srcOpts builds the replication source options for one epoch.
func (s *ReplicaShard) srcOpts(epoch uint64) ldbs.ReplSourceOptions {
	return ldbs.ReplSourceOptions{
		Epoch:      epoch,
		SemiSync:   !s.cfg.AsyncRepl,
		AckTimeout: s.cfg.AckTimeout,
		Obs:        s.cfg.Local.Obs,
	}
}

// startReplLocked starts the follower's redial loop. Callers hold no locks
// (construction) or lifeMu; the fields it touches are not yet shared.
func (s *ReplicaShard) startReplLocked() {
	if s.follower == nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stopRepl, s.replDone = stop, done
	fol := s.follower
	go func() {
		defer close(done)
		fol.Run(s.dialRepl, stop)
	}()
}

// dialRepl connects the follower to whatever source currently serves; the
// pair lives in one process, so the "wire" is a net.Pipe.
func (s *ReplicaShard) dialRepl() (io.ReadWriteCloser, error) {
	s.mu.Lock()
	src := s.src
	s.mu.Unlock()
	if src == nil {
		return nil, fmt.Errorf("%w (shard %d): primary not serving", ErrShardDown, s.cfg.Local.Index)
	}
	c1, c2 := net.Pipe()
	//lint:ignore gtmlint/goroleak Serve exits when either pipe end closes: the follower closes c2 on teardown and src.Close severs c1, so the pump's lifetime is bounded by the connection it carries
	go func() { _ = src.Serve(c1) }()
	return c2, nil
}

// registerMetrics registers the per-shard replication gauges once, owned by
// this pair for its whole life (sources come and go across restarts).
func (s *ReplicaShard) registerMetrics() {
	reg := s.cfg.Local.Obs
	if reg == nil {
		return
	}
	lbl := strconv.Itoa(s.cfg.Local.Index)
	s.promCounter = reg.Counter(obs.WithLabel(obs.NameShardPromotions, "shard", lbl),
		"Follower promotions per shard.")
	reg.GaugeFunc(obs.WithLabel(obs.NameReplLagBytes, "shard", lbl),
		"Bytes of WAL published but not yet follower-acknowledged.",
		func() float64 { info, _ := s.ReplicaInfo(); return float64(info.LagBytes) })
	reg.GaugeFunc(obs.WithLabel(obs.NameReplLagSeconds, "shard", lbl),
		"Age of the oldest unacknowledged WAL segment.",
		func() float64 { info, _ := s.ReplicaInfo(); return info.LagSeconds })
	reg.GaugeFunc(obs.WithLabel(obs.NameReplAckedLSN, "shard", lbl),
		"Highest follower-acknowledged LSN.",
		func() float64 { info, _ := s.ReplicaInfo(); return float64(info.AckedLSN) })
}

// ReplicaInfo implements ReplicaInfoProvider.
func (s *ReplicaShard) ReplicaInfo() (ReplicaInfo, bool) {
	s.mu.Lock()
	src, promoted, epoch := s.src, s.promoted, s.epoch
	s.mu.Unlock()
	info := ReplicaInfo{Role: RolePrimary, Epoch: epoch, Promotions: s.promotions.Load()}
	if promoted {
		info.Role = RolePromoted
	}
	if src != nil {
		st := src.Status()
		info.Epoch = st.Epoch
		info.LSN = st.LSN
		info.AckedLSN = st.AckedLSN
		info.LagBytes = st.LagBytes
		info.LagSeconds = st.LagSeconds
		info.Followers = st.Followers
		info.Degraded = st.Degraded
	}
	return info, true
}

// Kill crashes the primary: its manager, sessions and replication source
// are gone; the follower keeps redialing (and failing) until Restart or
// Promote. Mirrors LocalShard.Kill for chaos tests.
func (s *ReplicaShard) Kill() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.mu.Lock()
	src := s.src
	s.src = nil
	prim := s.primary
	s.sessions = make(map[string]*replicaSession)
	s.adopted = make(map[string]*adoptedTx)
	s.gen++
	s.mu.Unlock()
	if src != nil {
		src.Close()
	}
	if prim != nil {
		prim.Kill()
	}
}

// Restart recovers whichever stack currently owns the shard (the original
// primary, or the promoted follower) from its directory, reconstructs
// sleeping transactions from the sleep journal, and resumes serving the
// replication stream (a surviving follower resynchronizes by snapshot).
func (s *ReplicaShard) Restart() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.mu.Lock()
	prim := s.primary
	epoch := s.epoch
	s.mu.Unlock()
	if prim == nil {
		return fmt.Errorf("%w (shard %d)", ErrShardDown, s.cfg.Local.Index)
	}
	if err := prim.Restart(); err != nil {
		return err
	}
	src, err := ldbs.NewReplSource(prim.DB(), s.srcOpts(epoch))
	if err != nil {
		return fmt.Errorf("shard %d: %w", s.cfg.Local.Index, err)
	}
	adopted := s.adoptSleepers(prim)
	s.mu.Lock()
	s.src = src
	s.adopted = adopted
	s.sessions = make(map[string]*replicaSession)
	s.gen++
	s.mu.Unlock()
	return nil
}

// Promote fails the shard over to its follower: fence the (presumed dead)
// primary behind a new replication epoch, open a full GTM+LDBS stack on the
// follower's directory at its acknowledged LSN, and reconstruct the
// primary's sleeping transactions from the replicated sleep journal. After
// Promote the pair runs without a follower until one is re-seeded.
func (s *ReplicaShard) Promote() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.mu.Lock()
	if s.promoted {
		s.mu.Unlock()
		return nil
	}
	follower := s.follower
	stop, done := s.stopRepl, s.replDone
	s.stopRepl, s.replDone = nil, nil
	src := s.src
	s.src = nil
	oldPrimary := s.primary
	epoch := s.epoch
	s.mu.Unlock()
	if follower == nil {
		return fmt.Errorf("shard %d: no follower to promote", s.cfg.Local.Index)
	}

	// Fence: kill the old primary's stack and stream so a zombie cannot
	// keep committing, then stop the follower's apply loop.
	if src != nil {
		src.Close()
	}
	if oldPrimary != nil {
		oldPrimary.Kill()
	}
	if stop != nil {
		close(stop)
	}
	if done != nil {
		<-done
	}

	newEpoch := epoch + 1
	cursor, err := follower.Promote(newEpoch)
	if err != nil {
		return fmt.Errorf("shard %d: promote: %w", s.cfg.Local.Index, err)
	}
	cfg := s.cfg.Local
	cfg.Dir = s.cfg.FollowerDir
	ls, err := OpenLocal(cfg)
	if err != nil {
		return fmt.Errorf("shard %d: promote: %w", s.cfg.Local.Index, err)
	}
	newSrc, err := ldbs.NewReplSource(ls.DB(), s.srcOpts(newEpoch))
	if err != nil {
		ls.Close()
		return fmt.Errorf("shard %d: promote: %w", s.cfg.Local.Index, err)
	}
	adopted := s.adoptSleepers(ls)

	s.mu.Lock()
	s.primary = ls
	s.src = newSrc
	s.follower = nil
	s.promoted = true
	s.epoch = newEpoch
	s.adopted = adopted
	s.sessions = make(map[string]*replicaSession)
	s.gen++
	s.mu.Unlock()
	s.promotions.Add(1)
	if s.promCounter != nil {
		s.promCounter.Inc()
	}
	s.logf("shard %d: promoted follower at acked LSN %d (epoch %d → %d, %d sleeping txs reconstructed)",
		s.cfg.Local.Index, cursor, epoch, newEpoch, len(adopted))
	return nil
}

// Close shuts both sides down.
func (s *ReplicaShard) Close() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.mu.Lock()
	stop, done := s.stopRepl, s.replDone
	s.stopRepl, s.replDone = nil, nil
	src := s.src
	s.src = nil
	fol := s.follower
	s.follower = nil
	prim := s.primary
	s.mu.Unlock()
	if src != nil {
		src.Close()
	}
	if stop != nil {
		close(stop)
	}
	if done != nil {
		<-done
	}
	if fol != nil {
		fol.Close()
	}
	if prim != nil {
		prim.Kill()
	}
}

// DB exposes the serving stack's data layer for oracles; nil while down.
func (s *ReplicaShard) DB() *ldbs.DB {
	s.mu.Lock()
	prim := s.primary
	s.mu.Unlock()
	if prim == nil {
		return nil
	}
	return prim.DB()
}

// FollowerDB exposes the follower's data layer for lag oracles; nil once
// promoted.
func (s *ReplicaShard) FollowerDB() *ldbs.DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.follower == nil {
		return nil
	}
	return s.follower.DB()
}

// current returns the serving stack or ErrShardDown.
func (s *ReplicaShard) current() (*LocalShard, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.primary == nil {
		return nil, fmt.Errorf("%w (shard %d)", ErrShardDown, s.cfg.Local.Index)
	}
	return s.primary, nil
}

// --- sleep journal ---

// sleepOp is one journaled step of a transaction's granted history: an
// invocation, optionally with the operand its client already applied.
type sleepOp struct {
	Object  string      `json:"object"`
	Class   string      `json:"class"`
	Member  string      `json:"member"`
	Applied bool        `json:"applied,omitempty"`
	Operand *wire.Value `json:"operand,omitempty"`
}

// sleepState is the JSON payload of one __sleep row.
type sleepState struct {
	Tx  string    `json:"tx"`
	Ops []sleepOp `json:"ops"`
}

// dbForGen returns the serving DB if gen still matches (0 means current);
// nil stales the caller's write-back silently.
func (s *ReplicaShard) dbForGen(gen uint64) *ldbs.DB {
	s.mu.Lock()
	prim := s.primary
	if gen != 0 && gen != s.gen {
		prim = nil
	}
	s.mu.Unlock()
	if prim == nil {
		return nil
	}
	return prim.DB()
}

// persistSleepState upserts the transaction's journal row through the
// primary's own LDBS, so it rides the WAL — and the replication stream —
// before the sleep is acknowledged (semi-sync holds the row's commit until
// the follower acked it).
func (s *ReplicaShard) persistSleepState(gen uint64, tx string, ops []sleepOp) {
	db := s.dbForGen(gen)
	if db == nil {
		return
	}
	js, err := json.Marshal(sleepState{Tx: tx, Ops: ops})
	if err != nil {
		s.logf("shard %d: sleep journal of %s: %v", s.cfg.Local.Index, tx, err)
		return
	}
	ctx := context.Background()
	t := db.Begin()
	defer t.Rollback()
	if err := t.Upsert(ctx, SleepTable, tx, ldbs.Row{SleepColumn: sem.Str(string(js))}); err != nil {
		s.logf("shard %d: sleep journal of %s: %v", s.cfg.Local.Index, tx, err)
		return
	}
	if err := t.Commit(ctx); err != nil {
		s.logf("shard %d: sleep journal of %s: %v", s.cfg.Local.Index, tx, err)
	}
}

// clearSleepState removes the journal row. Callers clear BEFORE the
// terminal operation: losing a sleeper (cleared, then crash before the
// commit applied) is an availability regression only — its tentative
// effects lived in GTM memory — while the reverse order could reconstruct
// an already-committed transaction and double-apply it.
func (s *ReplicaShard) clearSleepState(gen uint64, tx string) {
	db := s.dbForGen(gen)
	if db == nil {
		return
	}
	ctx := context.Background()
	t := db.Begin()
	defer t.Rollback()
	if _, err := t.GetRow(ctx, SleepTable, tx); err != nil {
		return // no row (never slept, or already cleared)
	}
	if err := t.Delete(ctx, SleepTable, tx); err != nil {
		return
	}
	_ = t.Commit(ctx)
}

// adoptSleepers reconstructs every journaled sleeping transaction on a
// freshly opened stack: re-begin under the same id, replay the granted
// invocations (compatibility of simultaneously granted classes implies the
// replay order across transactions is immaterial) and the applied operands,
// then put it back to sleep. Unreplayable entries are dropped with a log
// line — their tentative effects never reached the database, so dropping
// them is the same abort the paper prescribes for an expired sleep.
func (s *ReplicaShard) adoptSleepers(ls *LocalShard) map[string]*adoptedTx {
	adopted := make(map[string]*adoptedTx)
	db, m := ls.DB(), ls.Manager()
	if db == nil || m == nil {
		return adopted
	}
	ctx := context.Background()
	rows := make(map[string]string)
	t := db.Begin()
	err := t.Scan(ctx, SleepTable, func(key string, row ldbs.Row) bool {
		rows[key] = row[SleepColumn].Text()
		return true
	})
	t.Rollback()
	if err != nil {
		s.logf("shard %d: sleep journal scan: %v", s.cfg.Local.Index, err)
		return adopted
	}
	ids := make([]string, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		var st sleepState
		if err := json.Unmarshal([]byte(rows[id]), &st); err != nil {
			s.logf("shard %d: sleeper %s: bad journal row: %v", s.cfg.Local.Index, id, err)
			continue
		}
		c, err := m.BeginClient(core.TxID(id))
		if err != nil {
			s.logf("shard %d: sleeper %s: %v", s.cfg.Local.Index, id, err)
			continue
		}
		if err := replaySleeper(ctx, c, st.Ops); err != nil {
			s.logf("shard %d: sleeper %s dropped: %v", s.cfg.Local.Index, id, err)
			_ = c.Abort()
			continue
		}
		adopted[id] = &adoptedTx{client: c, ops: st.Ops}
	}
	return adopted
}

// replaySleeper drives one reconstructed client through its journaled
// history and back to sleep.
func replaySleeper(ctx context.Context, c *core.Client, ops []sleepOp) error {
	for _, op := range ops {
		cls, err := wire.ParseClass(op.Class)
		if err != nil {
			return err
		}
		ictx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err = c.Invoke(ictx, core.ObjectID(op.Object), sem.Op{Class: cls, Member: op.Member})
		cancel()
		if err != nil {
			return err
		}
		if op.Applied && op.Operand != nil {
			v, err := op.Operand.ToSem()
			if err != nil {
				return err
			}
			if err := c.Apply(core.ObjectID(op.Object), v); err != nil {
				return err
			}
		}
	}
	return c.Sleep()
}

// dropAdopted aborts and forgets an adopted sleeper — the in-doubt 2PC
// path: when the coordinator's logged decision arrives (Decide or Replay),
// the logged write set is authoritative; a reconstructed sleeper for the
// same transaction is a stale duplicate whose replay would double-apply.
func (s *ReplicaShard) dropAdopted(tx string) {
	s.mu.Lock()
	a, ok := s.adopted[tx]
	if ok {
		delete(s.adopted, tx)
	}
	s.mu.Unlock()
	if ok {
		_ = a.client.Abort()
	}
}

// register tracks a live journaling session for the by-id Sleep path.
func (s *ReplicaShard) register(rs *replicaSession) {
	s.mu.Lock()
	if rs.gen == s.gen {
		s.sessions[rs.tx] = rs
	}
	s.mu.Unlock()
}

// dropSession forgets a finished session.
func (s *ReplicaShard) dropSession(gen uint64, tx string) {
	s.mu.Lock()
	if gen == s.gen {
		delete(s.sessions, tx)
	}
	s.mu.Unlock()
}

// --- Shard ---

// Index implements Shard.
func (s *ReplicaShard) Index() int { return s.cfg.Local.Index }

// Addr implements Shard; the pair lives in-process.
func (s *ReplicaShard) Addr() string { return "" }

// Down implements Shard.
func (s *ReplicaShard) Down() bool {
	s.mu.Lock()
	prim := s.primary
	s.mu.Unlock()
	return prim == nil || prim.Down()
}

// Ping implements Shard.
func (s *ReplicaShard) Ping() error {
	cur, err := s.current()
	if err != nil {
		return err
	}
	return cur.Ping()
}

// Begin implements Shard. A transaction id with an adopted sleeper resumes
// that sleeper — the re-resolution path after a promotion: the returning
// client finds its transaction alive on the new primary.
func (s *ReplicaShard) Begin(tx string) (Session, error) {
	s.mu.Lock()
	if a, ok := s.adopted[tx]; ok {
		delete(s.adopted, tx)
		gen := s.gen
		s.mu.Unlock()
		inner := wire.AdoptClient(a.client)
		tp, ok := inner.(wire.TwoPhaseSession)
		if !ok {
			return nil, fmt.Errorf("shard %d: adopted session lacks two-phase support", s.cfg.Local.Index)
		}
		rs := &replicaSession{
			shard: s, gen: gen, tx: tx,
			inner: localSession{Session: inner, tp: tp},
			ops:   append([]sleepOp(nil), a.ops...),
		}
		s.register(rs)
		return rs, nil
	}
	gen := s.gen
	prim := s.primary
	s.mu.Unlock()
	if prim == nil {
		return nil, fmt.Errorf("%w (shard %d)", ErrShardDown, s.cfg.Local.Index)
	}
	inner, err := prim.Begin(tx)
	if err != nil {
		return nil, err
	}
	rs := &replicaSession{shard: s, gen: gen, tx: tx, inner: inner}
	s.register(rs)
	return rs, nil
}

// Decide implements Shard. The logged decision supersedes any adopted
// sleeper under the same id.
func (s *ReplicaShard) Decide(tx string, commit bool, extra []wire.SSTWriteJSON) error {
	cur, err := s.current()
	if err != nil {
		return err
	}
	s.dropAdopted(tx)
	s.clearSleepState(0, tx)
	return cur.Decide(tx, commit, extra)
}

// Replay implements Shard, with the same adopted-sleeper eviction.
func (s *ReplicaShard) Replay(tx string, marker wire.SSTWriteJSON, writes []wire.SSTWriteJSON) (bool, error) {
	cur, err := s.current()
	if err != nil {
		return false, err
	}
	s.dropAdopted(tx)
	s.clearSleepState(0, tx)
	return cur.Replay(tx, marker, writes)
}

// TxState implements Shard.
func (s *ReplicaShard) TxState(tx string) (core.State, error) {
	cur, err := s.current()
	if err != nil {
		return 0, err
	}
	return cur.TxState(tx)
}

// Sleep implements Shard: through the journaling session when one is live,
// so the by-id disconnection path journals too.
func (s *ReplicaShard) Sleep(tx string) error {
	s.mu.Lock()
	rs := s.sessions[tx]
	s.mu.Unlock()
	if rs != nil {
		return rs.Sleep()
	}
	cur, err := s.current()
	if err != nil {
		return err
	}
	return cur.Sleep(tx)
}

// Sweep implements Shard.
func (s *ReplicaShard) Sweep(olderThan time.Duration) []string {
	cur, err := s.current()
	if err != nil {
		return nil
	}
	return cur.Sweep(olderThan)
}

// Transactions implements Shard.
func (s *ReplicaShard) Transactions() ([]wire.TxSummaryJSON, error) {
	cur, err := s.current()
	if err != nil {
		return nil, err
	}
	return cur.Transactions()
}

// Objects implements Shard.
func (s *ReplicaShard) Objects() ([]string, error) {
	cur, err := s.current()
	if err != nil {
		return nil, err
	}
	return cur.Objects()
}

// ObjectInfo implements Shard.
func (s *ReplicaShard) ObjectInfo(object string) (*wire.ObjectInfoJSON, error) {
	cur, err := s.current()
	if err != nil {
		return nil, err
	}
	return cur.ObjectInfo(object)
}

// Stats implements Shard, merging in the replication counters.
func (s *ReplicaShard) Stats() (map[string]uint64, error) {
	cur, err := s.current()
	if err != nil {
		return nil, err
	}
	st, err := cur.Stats()
	if err != nil {
		return nil, err
	}
	info, _ := s.ReplicaInfo()
	st["repl_epoch"] = info.Epoch
	st["repl_acked_lsn"] = info.AckedLSN
	st["repl_lag_bytes"] = info.LagBytes
	st["shard_promotions"] = info.Promotions
	return st, nil
}

// --- journaling session ---

// replicaSession wraps a primary session and journals its granted history
// so Sleep can persist a reconstructible record. The journal write precedes
// the sleep; the row delete precedes every terminal operation (see
// clearSleepState for why that order is the safe one).
type replicaSession struct {
	shard *ReplicaShard
	gen   uint64
	tx    string
	inner Session

	mu  sync.Mutex
	ops []sleepOp
}

func (rs *replicaSession) opsSnapshot() []sleepOp {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]sleepOp(nil), rs.ops...)
}

// live refuses calls once the session's stack generation is gone. The old
// manager object outlives a Kill (core.Manager.Close keeps it answering
// from memory), so without this guard a stale session would keep
// "succeeding" against a zombie stack after a failover instead of failing
// over to the re-resolution path.
func (rs *replicaSession) live() error {
	rs.shard.mu.Lock()
	ok := rs.gen == rs.shard.gen
	rs.shard.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w (shard %d): session superseded by failover",
			ErrShardDown, rs.shard.cfg.Local.Index)
	}
	return nil
}

func (rs *replicaSession) Invoke(ctx context.Context, obj core.ObjectID, op sem.Op) error {
	if err := rs.live(); err != nil {
		return err
	}
	if err := rs.inner.Invoke(ctx, obj, op); err != nil {
		return err
	}
	rs.mu.Lock()
	rs.ops = append(rs.ops, sleepOp{
		Object: string(obj), Class: wire.ClassName(op.Class), Member: op.Member})
	rs.mu.Unlock()
	return nil
}

func (rs *replicaSession) Read(obj core.ObjectID) (sem.Value, error) {
	if err := rs.live(); err != nil {
		return sem.Value{}, err
	}
	return rs.inner.Read(obj)
}

func (rs *replicaSession) Apply(obj core.ObjectID, operand sem.Value) error {
	if err := rs.live(); err != nil {
		return err
	}
	if err := rs.inner.Apply(obj, operand); err != nil {
		return err
	}
	rs.mu.Lock()
	for i := range rs.ops {
		o := &rs.ops[i]
		if o.Object == string(obj) && !o.Applied {
			v := wire.FromSem(operand)
			o.Applied, o.Operand = true, &v
			break
		}
	}
	rs.mu.Unlock()
	return nil
}

func (rs *replicaSession) Sleep() error {
	if err := rs.live(); err != nil {
		return err
	}
	rs.shard.persistSleepState(rs.gen, rs.tx, rs.opsSnapshot())
	return rs.inner.Sleep()
}

func (rs *replicaSession) Awake() (bool, error) {
	if err := rs.live(); err != nil {
		return false, err
	}
	return rs.inner.Awake()
}

func (rs *replicaSession) Commit(ctx context.Context) error {
	if err := rs.live(); err != nil {
		return err
	}
	rs.shard.clearSleepState(rs.gen, rs.tx)
	err := rs.inner.Commit(ctx)
	if err == nil {
		rs.shard.dropSession(rs.gen, rs.tx)
	}
	return err
}

func (rs *replicaSession) Abort() error {
	if err := rs.live(); err != nil {
		return err
	}
	rs.shard.clearSleepState(rs.gen, rs.tx)
	err := rs.inner.Abort()
	if err == nil {
		rs.shard.dropSession(rs.gen, rs.tx)
	}
	return err
}

func (rs *replicaSession) Prepare(ctx context.Context) ([]wire.SSTWriteJSON, error) {
	if err := rs.live(); err != nil {
		return nil, err
	}
	return rs.inner.Prepare(ctx)
}

func (rs *replicaSession) Decide(ctx context.Context, commit bool, extra []wire.SSTWriteJSON) error {
	if err := rs.live(); err != nil {
		return err
	}
	rs.shard.clearSleepState(rs.gen, rs.tx)
	err := rs.inner.Decide(ctx, commit, extra)
	if err == nil {
		rs.shard.dropSession(rs.gen, rs.tx)
	}
	return err
}

func (rs *replicaSession) Release() {
	rs.inner.Release()
	rs.shard.dropSession(rs.gen, rs.tx)
}
