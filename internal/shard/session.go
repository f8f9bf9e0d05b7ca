package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

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

// adoptedTx is a sleeping transaction reconstructed on a freshly opened
// stack from its sleep-journal row, waiting for its client to come back
// and Begin the same id again.
type adoptedTx struct {
	client *core.Client
	ops    []sleepOp
}

// journalDB returns the serving database while generation gen still
// serves; nil stales the caller's journal write.
func (s *LocalShard) journalDB(gen uint64) *ldbs.DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil || gen != s.gen {
		return nil
	}
	return s.cur.db
}

// persistSleepState upserts the transaction's journal row through the
// shard's own LDBS, so it rides the WAL — and, on a ReplicaShard, the
// replication stream — before the sleep is acknowledged (semi-sync holds
// the row's commit until the follower acked it).
func (s *LocalShard) persistSleepState(gen uint64, tx string, ops []sleepOp) {
	db := s.journalDB(gen)
	if db == nil {
		return
	}
	js, err := json.Marshal(sleepState{Tx: tx, Ops: ops})
	if err != nil {
		s.logf("shard %d: sleep journal of %s: %v", s.cfg.Index, tx, err)
		return
	}
	ctx := context.Background()
	t := db.Begin()
	defer t.Rollback()
	if err := t.Upsert(ctx, SleepTable, tx, ldbs.Row{SleepColumn: sem.Str(string(js))}); err != nil {
		s.logf("shard %d: sleep journal of %s: %v", s.cfg.Index, tx, err)
		return
	}
	if err := t.Commit(ctx); err != nil {
		s.logf("shard %d: sleep journal of %s: %v", s.cfg.Index, tx, err)
	}
}

// clearSleepState removes the journal row while generation gen serves.
// Callers clear BEFORE the terminal operation: losing a sleeper
// (cleared, then crash before the commit applied) is an availability
// regression only — its tentative effects lived in GTM memory — while the
// reverse order could reconstruct an already-committed transaction and
// double-apply it.
func (s *LocalShard) clearSleepState(gen uint64, tx string) {
	if db := s.journalDB(gen); db != nil {
		deleteSleepRow(db, tx)
	}
}

// deleteSleepRow deletes tx's journal row from db, if it has one.
func deleteSleepRow(db *ldbs.DB, tx string) {
	ctx := context.Background()
	t := db.Begin()
	defer t.Rollback()
	if err := t.Delete(ctx, SleepTable, tx); err != nil {
		return // no row (never slept, or already cleared)
	}
	_ = t.Commit(ctx)
}

// purgeSleepJournal deletes every journal row in one transaction.
func purgeSleepJournal(db *ldbs.DB) error {
	ctx := context.Background()
	t := db.Begin()
	defer t.Rollback()
	var ids []string
	if err := t.Scan(ctx, SleepTable, func(key string, _ ldbs.Row) bool {
		ids = append(ids, key)
		return true
	}); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	for _, id := range ids {
		if err := t.Delete(ctx, SleepTable, id); err != nil {
			return err
		}
	}
	return t.Commit(ctx)
}

// adoptSleepers reconstructs every journaled sleeping transaction on a
// freshly opened stack: re-begin under the same id, replay the granted
// invocations (compatibility of simultaneously granted classes implies the
// replay order across transactions is immaterial) and the applied operands,
// then put it back to sleep. An unreplayable entry is dropped with a log
// line and its row deleted — its tentative effects never reached the
// database, so dropping it is the same abort the paper prescribes for an
// expired sleep, and the row must not fail again on every later restart.
func (s *LocalShard) adoptSleepers(st *stack) map[string]*adoptedTx {
	adopted := make(map[string]*adoptedTx)
	ctx := context.Background()
	rows := make(map[string]string)
	t := st.db.Begin()
	err := t.Scan(ctx, SleepTable, func(key string, row ldbs.Row) bool {
		rows[key] = row[SleepColumn].Text()
		return true
	})
	t.Rollback()
	if err != nil {
		s.logf("shard %d: sleep journal scan: %v", s.cfg.Index, err)
		return adopted
	}
	ids := make([]string, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		c, ops, err := adoptSleeper(ctx, st.m, id, rows[id])
		if err != nil {
			s.logf("shard %d: sleeper %s dropped: %v", s.cfg.Index, id, err)
			deleteSleepRow(st.db, id)
			continue
		}
		adopted[id] = &adoptedTx{client: c, ops: ops}
	}
	return adopted
}

// adoptSleeper decodes one journal row and drives a reconstructed client
// through its history and back to sleep; on failure the client is gone.
func adoptSleeper(ctx context.Context, m *core.Manager, id, row string) (*core.Client, []sleepOp, error) {
	var st sleepState
	if err := json.Unmarshal([]byte(row), &st); err != nil {
		return nil, nil, fmt.Errorf("bad journal row: %w", err)
	}
	c, err := m.BeginClient(core.TxID(id))
	if err != nil {
		return nil, nil, err
	}
	if err := replaySleeper(ctx, c, st.Ops); err != nil {
		_ = c.Abort()
		return nil, nil, err
	}
	return c, st.Ops, nil
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
func (s *LocalShard) dropAdopted(tx string) {
	s.mu.Lock()
	a := s.adopted[tx]
	delete(s.adopted, tx)
	s.mu.Unlock()
	if a != nil {
		_ = a.client.Abort()
	}
}

// --- journaling session ---

// session is one transaction's handle on one generation of a LocalShard.
// It journals the transaction's granted history so Sleep can persist a
// reconstructible record. The journal write precedes the sleep; the row
// delete precedes every terminal operation (see clearSleepState for why
// that order is the safe one), and only runs when a row can exist.
type session struct {
	shard *LocalShard
	gen   uint64
	tx    string
	c     *core.Client

	mu        sync.Mutex
	ops       []sleepOp
	journaled bool // a journal row may exist: this session slept, or was adopted
}

// live refuses calls once the session's generation is gone. The old
// manager object outlives a Kill (core.Manager.Close keeps it answering
// from memory), so without this guard a stale session would keep
// "succeeding" against a zombie stack after a restart or failover instead
// of failing over to the re-resolution path.
func (ss *session) live() error {
	ss.shard.mu.Lock()
	ok := ss.gen == ss.shard.gen
	ss.shard.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w (shard %d): session superseded by a restart",
			ErrShardDown, ss.shard.cfg.Index)
	}
	return nil
}

// finish runs a terminal operation: clear the journal row first if one can
// exist, forget the session and its history once the operation succeeded —
// a finished transaction never sleeps again, while the front end may hold
// its handle for a while yet.
func (ss *session) finish(op func() error) error {
	if err := ss.live(); err != nil {
		return err
	}
	ss.mu.Lock()
	journaled := ss.journaled
	ss.mu.Unlock()
	if journaled {
		ss.shard.clearSleepState(ss.gen, ss.tx)
	}
	err := op()
	if err == nil {
		ss.mu.Lock()
		ss.ops = nil
		ss.mu.Unlock()
		ss.shard.dropSession(ss.gen, ss.tx)
	}
	return err
}

func (ss *session) Invoke(ctx context.Context, obj core.ObjectID, op sem.Op) error {
	if err := ss.live(); err != nil {
		return err
	}
	if err := ss.c.Invoke(ctx, obj, op); err != nil {
		return err
	}
	ss.mu.Lock()
	ss.ops = append(ss.ops, sleepOp{
		Object: string(obj), Class: wire.ClassName(op.Class), Member: op.Member})
	ss.mu.Unlock()
	return nil
}

func (ss *session) Read(obj core.ObjectID) (sem.Value, error) {
	if err := ss.live(); err != nil {
		return sem.Value{}, err
	}
	return ss.c.Read(obj)
}

func (ss *session) Apply(obj core.ObjectID, operand sem.Value) error {
	if err := ss.live(); err != nil {
		return err
	}
	if err := ss.c.Apply(obj, operand); err != nil {
		return err
	}
	ss.mu.Lock()
	for i := range ss.ops {
		o := &ss.ops[i]
		if o.Object == string(obj) && !o.Applied {
			v := wire.FromSem(operand)
			o.Applied, o.Operand = true, &v
			break
		}
	}
	ss.mu.Unlock()
	return nil
}

func (ss *session) Sleep() error {
	if err := ss.live(); err != nil {
		return err
	}
	ss.mu.Lock()
	ops := append([]sleepOp(nil), ss.ops...)
	ss.journaled = true
	ss.mu.Unlock()
	ss.shard.persistSleepState(ss.gen, ss.tx, ops)
	err := ss.c.Sleep()
	if err != nil {
		// The core refused (the transaction committed, say): a row left
		// behind would come back as an empty sleeper on the next Restart.
		// A transaction that is asleep already keeps its row.
		if st, serr := ss.c.State(); serr != nil || st != core.StateSleeping {
			ss.shard.clearSleepState(ss.gen, ss.tx)
		}
	}
	return err
}

func (ss *session) Awake() (bool, error) {
	if err := ss.live(); err != nil {
		return false, err
	}
	return ss.c.Awake()
}

func (ss *session) Commit(ctx context.Context) error {
	return ss.finish(func() error { return ss.c.Commit(ctx) })
}

func (ss *session) Abort() error { return ss.finish(ss.c.Abort) }

func (ss *session) Prepare(ctx context.Context) ([]wire.SSTWriteJSON, error) {
	if err := ss.live(); err != nil {
		return nil, err
	}
	writes, err := ss.c.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	return wire.FromCoreWrites(writes), nil
}

func (ss *session) Decide(ctx context.Context, commit bool, extra []wire.SSTWriteJSON) error {
	ws, err := wire.ToCoreWrites(extra)
	if err != nil {
		return err
	}
	return ss.finish(func() error { return ss.c.Decide(ctx, commit, ws...) })
}

// Release forgets the session; the transaction itself is untouched.
func (ss *session) Release() { ss.shard.dropSession(ss.gen, ss.tx) }
