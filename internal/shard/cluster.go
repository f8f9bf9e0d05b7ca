package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"preserial/internal/core"
	"preserial/internal/fifo"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// Config assembles a cluster.
type Config struct {
	// Shards, indexed 0..n-1 (each shard's Index must equal its slice
	// position — routing depends on it).
	Shards []Shard
	// CoordLogPath is the coordinator WAL; empty runs without decision
	// logging (volatile clusters: benches and pure in-memory tests).
	CoordLogPath string
	// Obs, when non-nil, receives the shard_* metric set.
	Obs *obs.Registry
	// Logger receives coordinator events; nil silences them.
	Logger *log.Logger
}

// Cluster fronts N shards as one wire.Backend: clients speak the ordinary
// protocol to a router while their transactions fan out to the shards that
// own the objects they touch. Single-shard transactions commit through the
// shard's unmodified pipeline; cross-shard transactions commit through the
// two-phase SST protocol with the cluster as coordinator.
type Cluster struct {
	shards  []Shard
	ring    *Ring
	log     *CoordLog
	logger  *log.Logger
	metrics *clusterMetrics

	// HookAfterPrepare and HookAfterLog, when set, are called during a
	// cross-shard commit — after every participant prepared, and after the
	// decision hit the coordinator WAL. Chaos tests kill shards here.
	HookAfterPrepare func(tx string)
	HookAfterLog     func(tx string)

	mu       sync.Mutex
	txs      map[string]*clusterTx // live transactions; each leaves at its outcome
	records  map[string]txRecord   // outcomes of the newest finished, see recordLocked
	finished fifo.Queue[string]    // records' ids in the order they finished
	pending  map[string]Decision   // decided, not yet acknowledged done

	// Failure-detector state, one slot per shard; nil until
	// StartFailureDetector runs. Guarded by fdMu (the detector ticks while
	// the coordinator holds mu for commits — separate locks keep them out
	// of each other's way).
	fdMu    sync.Mutex
	fdBeats []fdBeat
}

// fdBeat is the heartbeat ledger for one shard.
type fdBeat struct {
	lastOK time.Time // last successful ping (zero: never)
	missed int       // consecutive failed pings
}

// txRecord remembers a finished transaction's outcome at the coordinator.
type txRecord struct {
	state  core.State
	reason string
}

// NewCluster builds the coordinator. If a coordinator log is configured
// and holds unfinished decisions from a previous run, they become the
// in-doubt set — call ResolveInDoubt once the shards are reachable, before
// routing client traffic.
func NewCluster(cfg Config) (*Cluster, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shard: cluster needs at least one shard")
	}
	for i, sh := range cfg.Shards {
		if sh.Index() != i {
			return nil, fmt.Errorf("shard: shard at position %d reports index %d", i, sh.Index())
		}
	}
	lg := cfg.Logger
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	cl := &Cluster{
		shards:  cfg.Shards,
		ring:    NewRing(len(cfg.Shards)),
		logger:  lg,
		txs:     make(map[string]*clusterTx),
		records: make(map[string]txRecord),
		pending: make(map[string]Decision),
	}
	if cfg.CoordLogPath != "" {
		l, pending, err := OpenCoordLog(cfg.CoordLogPath)
		if err != nil {
			return nil, err
		}
		cl.log = l
		for _, d := range pending {
			cl.pending[d.Tx] = d
			// A logged decision is a commitment — recovery completes it.
			cl.recordLocked(d.Tx, core.StateCommitted, "")
		}
		if len(pending) > 0 {
			lg.Printf("shard: recovered %d in-doubt decisions from the coordinator log", len(pending))
		}
	}
	cl.metrics = newClusterMetrics(cfg.Obs, cl)
	return cl, nil
}

// Close releases the coordinator log. Shards are owned by the caller.
func (cl *Cluster) Close() error { return cl.log.Close() }

// Ring exposes the cluster's router.
func (cl *Cluster) Ring() *Ring { return cl.ring }

// InDoubt returns the transactions whose commit decision is logged but not
// yet acknowledged durable on every participant.
func (cl *Cluster) InDoubt() []string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]string, 0, len(cl.pending))
	for tx := range cl.pending {
		out = append(out, tx)
	}
	sort.Strings(out)
	return out
}

// --- wire.Backend ---

// Begin implements wire.Backend.
func (cl *Cluster) Begin(tx string) (wire.Session, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if _, live := cl.txs[tx]; live {
		return nil, fmt.Errorf("%w: %s", core.ErrTxExists, tx)
	}
	if _, settled := cl.records[tx]; settled {
		return nil, fmt.Errorf("%w: %s", core.ErrTxExists, tx)
	}
	t := &clusterTx{cl: cl, id: tx}
	cl.txs[tx] = t
	return t, nil
}

// TxState implements wire.Backend: the merged state of a transaction's
// sub-transactions. Precedence: any aborted participant makes the whole
// transaction aborted (2PC guarantees the rest follow); any still-running
// participant keeps it running; only all-committed is committed.
func (cl *Cluster) TxState(tx string) (core.State, error) {
	cl.mu.Lock()
	t, live := cl.txs[tx]
	rec, settled := cl.records[tx]
	cl.mu.Unlock()
	if live {
		states := t.subStates()
		if len(states) == 0 {
			return core.StateActive, nil // begun, nothing invoked yet
		}
		st := mergeStates(states)
		// A shard aborted it on its own (a timed-out wait): unwind the rest,
		// unless a Commit, Abort or Awake in flight settles it.
		if st == core.StateAborted && t.op.TryLock() {
			if subs, err := t.snapshot(); err == nil {
				t.unwind(subs, "")
			}
			t.op.Unlock()
		}
		return st, nil
	}
	if settled {
		return rec.state, nil
	}
	// Unknown here: a transaction from before a router restart may still
	// live on the shards.
	var states []core.State
	for _, sh := range cl.shards {
		if st, err := sh.TxState(tx); err == nil {
			states = append(states, st)
		}
	}
	if len(states) == 0 {
		return 0, fmt.Errorf("%w: %s", core.ErrUnknownTx, tx)
	}
	return mergeStates(states), nil
}

// Sleep implements wire.Backend (the disconnection path).
func (cl *Cluster) Sleep(tx string) error {
	cl.mu.Lock()
	t, live := cl.txs[tx]
	cl.mu.Unlock()
	if !live {
		return fmt.Errorf("%w: %s", core.ErrUnknownTx, tx)
	}
	return t.Sleep()
}

// SleepAllLive implements wire.Backend (graceful drain): every live
// cluster transaction's Active/Waiting sub-transactions go to sleep.
func (cl *Cluster) SleepAllLive() []string {
	cl.mu.Lock()
	txs := make([]*clusterTx, 0, len(cl.txs))
	for _, t := range cl.txs {
		txs = append(txs, t)
	}
	cl.mu.Unlock()
	var slept []string
	for _, t := range txs {
		any := false
		subs, _ := t.snapshot()
		for _, sub := range subs {
			st, err := cl.shards[sub.idx].TxState(t.id)
			if err != nil || (st != core.StateActive && st != core.StateWaiting) {
				continue
			}
			if err := sub.sess.Sleep(); err == nil {
				any = true
			}
		}
		if any {
			slept = append(slept, t.id)
		}
	}
	sort.Strings(slept)
	return slept
}

// recordLocked notes tx's outcome and forgets the oldest one beyond
// core.TerminalRetention. Callers hold cl.mu.
func (cl *Cluster) recordLocked(tx string, st core.State, reason string) {
	if _, ok := cl.records[tx]; ok {
		return // a recovered decision, resolved: it was recorded committed
	}
	cl.records[tx] = txRecord{state: st, reason: reason}
	cl.finished.Push(tx)
	if cl.finished.Len() > core.TerminalRetention {
		delete(cl.records, cl.finished.Front())
		cl.finished.Pop()
	}
}

// Transactions implements wire.Backend: the union of every shard's
// registry, merged per transaction, plus coordinator-settled outcomes no
// shard remembers.
func (cl *Cluster) Transactions() []wire.TxSummaryJSON {
	type agg struct {
		states  []core.State
		objects map[string]bool
		reason  string
		prio    int
	}
	byTx := make(map[string]*agg)
	for _, sh := range cl.shards {
		for _, ti := range sh.Transactions() {
			a := byTx[ti.ID]
			if a == nil {
				a = &agg{objects: make(map[string]bool)}
				byTx[ti.ID] = a
			}
			if st, ok := parseState(ti.State); ok {
				a.states = append(a.states, st)
			}
			for _, o := range ti.Objects {
				a.objects[o] = true
			}
			if ti.Reason != "" {
				a.reason = ti.Reason
			}
			if ti.Priority != 0 {
				a.prio = ti.Priority
			}
		}
	}
	cl.mu.Lock()
	for id, rec := range cl.records {
		if _, ok := byTx[id]; !ok {
			byTx[id] = &agg{states: []core.State{rec.state}, reason: rec.reason,
				objects: make(map[string]bool)}
		}
	}
	cl.mu.Unlock()
	ids := make([]string, 0, len(byTx))
	for id := range byTx {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]wire.TxSummaryJSON, 0, len(ids))
	for _, id := range ids {
		a := byTx[id]
		objs := make([]string, 0, len(a.objects))
		for o := range a.objects {
			objs = append(objs, o)
		}
		sort.Strings(objs)
		st := mergeStates(a.states)
		sum := wire.TxSummaryJSON{ID: id, State: st.String(), Objects: objs, Priority: a.prio}
		if st == core.StateAborted {
			sum.Reason = a.reason
		}
		out = append(out, sum)
	}
	return out
}

// Objects implements wire.Backend: the whole partitioned object space.
func (cl *Cluster) Objects() []string {
	var out []string
	for _, sh := range cl.shards {
		out = append(out, sh.Objects()...)
	}
	sort.Strings(out)
	return out
}

// ObjectInfo implements wire.Backend by asking the owning shard.
func (cl *Cluster) ObjectInfo(object string) (*wire.ObjectInfoJSON, error) {
	return cl.shards[cl.ring.Route(object)].ObjectInfo(object)
}

// Stats implements wire.Backend: shard counters summed, plus the
// coordinator's own.
func (cl *Cluster) Stats() map[string]uint64 {
	out := make(map[string]uint64)
	for _, sh := range cl.shards {
		for k, v := range sh.Stats() {
			out[k] += v
		}
	}
	cl.mu.Lock()
	inDoubt := uint64(len(cl.pending))
	cl.mu.Unlock()
	out["shards"] = uint64(len(cl.shards))
	out["cluster_single_commits"] = cl.metrics.singleCommits.Load()
	out["cluster_cross_commits"] = cl.metrics.crossCommits.Load()
	out["cluster_2pc_prepares"] = cl.metrics.prepares.Load()
	out["cluster_2pc_replays"] = cl.metrics.replays.Load()
	out["cluster_in_doubt"] = inDoubt
	return out
}

// --- wire.ShardBackend ---

// Topology implements wire.ShardBackend.
func (cl *Cluster) Topology() []wire.ShardStat {
	// Per-shard in-doubt counts from the coordinator's pending decisions.
	inDoubt := make(map[int]int)
	cl.mu.Lock()
	for _, d := range cl.pending {
		for _, p := range d.Participants {
			inDoubt[p.Shard]++
		}
	}
	cl.mu.Unlock()

	out := make([]wire.ShardStat, len(cl.shards))
	for i, sh := range cl.shards {
		stat := wire.ShardStat{Index: i, Addr: sh.Addr(), Down: sh.Down(),
			Objects: len(sh.Objects()), Txs: liveTxs(sh)}
		stat.InDoubt = inDoubt[i]
		if rp, ok := sh.(ReplicaInfoProvider); ok {
			if info, ok := rp.ReplicaInfo(); ok {
				stat.Role = info.Role
				stat.Epoch = info.Epoch
				stat.ReplLSN = info.LSN
				stat.ReplAcked = info.AckedLSN
				stat.ReplLagBytes = info.LagBytes
				stat.ReplLagSeconds = info.LagSeconds
				stat.ReplDegraded = info.Degraded
				stat.Promotions = info.Promotions
			}
		}
		cl.fdMu.Lock()
		if i < len(cl.fdBeats) {
			b := cl.fdBeats[i]
			if !b.lastOK.IsZero() {
				stat.HeartbeatAgeMS = time.Since(b.lastOK).Milliseconds()
			} else {
				stat.HeartbeatAgeMS = -1
			}
			stat.MissedBeats = b.missed
		}
		cl.fdMu.Unlock()
		out[i] = stat
	}
	return out
}

// --- failure detection & failover ---

// FailoverConfig tunes the cluster's failure detector.
type FailoverConfig struct {
	// Interval between heartbeat rounds; zero means 200ms.
	Interval time.Duration
	// Misses is how many consecutive failed pings declare a shard dead;
	// zero means 3.
	Misses int
	// Promote enables kill-and-promote: a dead shard that can fail over to
	// a follower (a ReplicaShard pair) is promoted, then the coordinator's
	// logged in-doubt decisions are driven to resolution on it.
	Promote bool
}

// StartFailureDetector heartbeats every shard and (optionally) fails dead
// ones over to their followers. It returns a stop function; call it before
// Close. Only one detector per cluster.
func (cl *Cluster) StartFailureDetector(cfg FailoverConfig) (stop func()) {
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	if cfg.Misses <= 0 {
		cfg.Misses = 3
	}
	cl.fdMu.Lock()
	if cl.fdBeats == nil {
		cl.fdBeats = make([]fdBeat, len(cl.shards))
	}
	cl.fdMu.Unlock()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			cl.heartbeatRound(cfg)
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// heartbeatRound pings every shard once and promotes the ones declared
// dead.
func (cl *Cluster) heartbeatRound(cfg FailoverConfig) {
	for i, sh := range cl.shards {
		err := sh.Ping()
		cl.fdMu.Lock()
		if err == nil {
			cl.fdBeats[i] = fdBeat{lastOK: time.Now(), missed: 0}
			cl.fdMu.Unlock()
			continue
		}
		cl.fdBeats[i].missed++
		missed := cl.fdBeats[i].missed
		cl.fdMu.Unlock()
		cl.metrics.heartbeatMisses.Inc()
		if missed < cfg.Misses || !cfg.Promote {
			continue
		}
		p, ok := sh.(promoter)
		if !ok {
			continue
		}
		cl.logger.Printf("shard: shard %d missed %d heartbeats, promoting follower", i, missed)
		if err := p.Promote(); err != nil {
			cl.logger.Printf("shard: promoting shard %d: %v", i, err)
			continue
		}
		cl.fdMu.Lock()
		cl.fdBeats[i] = fdBeat{lastOK: time.Now(), missed: 0}
		cl.fdMu.Unlock()
		// The promoted stack replays the coordinator's logged decisions so
		// in-doubt cross-shard transactions resolve through the failover.
		if n, err := cl.ResolveInDoubt(); err != nil {
			cl.logger.Printf("shard: resolving in-doubt after promoting shard %d: %v", i, err)
		} else if n > 0 {
			cl.logger.Printf("shard: resolved %d in-doubt decisions after promoting shard %d", n, i)
		}
	}
}

// Route implements wire.ShardBackend.
func (cl *Cluster) Route(object string) (int, error) {
	return cl.ring.Route(object), nil
}

// --- recovery ---

// ResolveInDoubt drives every pending logged decision to durability on all
// its participants: a participant still holding the prepared transaction
// gets the decision delivered; one that lost it (crash) gets the write set
// replayed under the marker probe. Call after a coordinator restart, and
// after restarting a crashed shard — before routing traffic to it.
func (cl *Cluster) ResolveInDoubt() (resolved int, firstErr error) {
	cl.mu.Lock()
	work := make([]Decision, 0, len(cl.pending))
	for _, d := range cl.pending {
		work = append(work, d)
	}
	cl.mu.Unlock()
	sort.Slice(work, func(i, j int) bool { return work[i].Tx < work[j].Tx })
	for _, d := range work {
		ok := true
		for _, p := range d.Participants {
			if err := cl.resolveParticipant(d.Tx, p); err != nil {
				ok = false
				if firstErr == nil {
					firstErr = err
				}
				cl.logger.Printf("shard: resolving %s on shard %d: %v", d.Tx, p.Shard, err)
			}
		}
		if !ok {
			continue
		}
		if err := cl.log.LogDone(d.Tx); err != nil && firstErr == nil {
			firstErr = err
			continue
		}
		cl.mu.Lock()
		delete(cl.pending, d.Tx)
		cl.recordLocked(d.Tx, core.StateCommitted, "")
		cl.mu.Unlock()
		resolved++
	}
	return resolved, firstErr
}

// resolveParticipant brings one participant's slice of a logged commit
// decision to durability.
func (cl *Cluster) resolveParticipant(tx string, p Participant) error {
	sh := cl.shards[p.Shard]
	if st, err := sh.TxState(tx); err == nil {
		if st == core.StateCommitted {
			return nil // the original decided SST landed
		}
		if !st.Terminal() {
			// The participant survived with the transaction prepared (or
			// its SST still in flight): deliver the decision and wait.
			//lint:ignore gtmlint/durability the decision being re-delivered here was recovered from the CoordLog, so it is already durable; resolution must not re-log it
			if err := sh.Decide(tx, true, []wire.SSTWriteJSON{p.Marker}); err != nil &&
				!errors.Is(err, core.ErrBadState) {
				return err
			}
			for i := 0; i < 400; i++ {
				st, err := sh.TxState(tx)
				if err != nil || st.Terminal() {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if st, err := sh.TxState(tx); err == nil && st == core.StateCommitted {
				return nil
			}
		}
	}
	// The participant lost the transaction (restart) or its decided SST
	// failed: re-apply from the log, idempotently.
	applied, err := sh.Replay(tx, p.Marker, p.Writes)
	if err != nil {
		return err
	}
	if applied {
		cl.metrics.replays.Inc()
		cl.logger.Printf("shard: replayed decided writes of %s on shard %d", tx, p.Shard)
	}
	return nil
}

// --- cluster transaction ---

// clusterTx is one client transaction fanned out across shards: a
// wire.Session whose sub-transactions are begun lazily on first touch.
type clusterTx struct {
	cl *Cluster
	id string

	// op is held by Commit, Abort and Awake, which settle it themselves.
	//
	//gtmlint:lockorder shard.clusterTx.op -> shard.clusterTx.mu
	//gtmlint:lockorder shard.clusterTx.op -> shard.Cluster.mu
	//gtmlint:lockorder shard.clusterTx.op -> shard.CoordLog.mu
	op sync.Mutex

	mu   sync.Mutex
	subs []subRef // ascending shard order
	done bool     // the outcome is recorded and the sub-sessions released
}

type subRef struct {
	idx  int
	sess Session
}

// snapshot returns the sub-sessions in ascending shard order, or an error
// once the transaction finished.
func (t *clusterTx) snapshot() ([]subRef, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, fmt.Errorf("%w: %s has finished", core.ErrBadState, t.id)
	}
	return append([]subRef(nil), t.subs...), nil
}

// find returns where shard idx's sub-session sits in t.subs, or where it
// would be inserted. Callers hold t.mu.
func (t *clusterTx) find(idx int) (int, bool) {
	i := sort.Search(len(t.subs), func(i int) bool { return t.subs[i].idx >= idx })
	return i, i < len(t.subs) && t.subs[i].idx == idx
}

// sub returns the session on shard idx, beginning it when begin is set.
func (t *clusterTx) sub(idx int, begin bool) (Session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, fmt.Errorf("%w: %s has finished", core.ErrBadState, t.id)
	}
	i, ok := t.find(idx)
	if ok {
		return t.subs[i].sess, nil
	}
	if !begin {
		return nil, fmt.Errorf("%w: %s has no invocation on shard %d", core.ErrNotInvoked, t.id, idx)
	}
	sess, err := t.cl.shards[idx].Begin(t.id)
	if err != nil {
		return nil, err
	}
	t.subs = slices.Insert(t.subs, i, subRef{idx, sess})
	return sess, nil
}

// release drops the sub-sessions (a remote session's connection) once the
// outcome is recorded; later calls are refused.
func (t *clusterTx) release() {
	t.mu.Lock()
	subs := t.subs
	t.subs, t.done = nil, true
	t.mu.Unlock()
	for _, sub := range subs {
		sub.sess.Release()
	}
}

// Invoke routes the invocation to the owning shard, beginning the
// sub-transaction on first touch.
func (t *clusterTx) Invoke(ctx context.Context, obj core.ObjectID, op sem.Op) error {
	sess, err := t.sub(t.cl.ring.Route(string(obj)), true)
	if err != nil {
		return err
	}
	return sess.Invoke(ctx, obj, op)
}

// Read routes to the owning shard.
func (t *clusterTx) Read(obj core.ObjectID) (sem.Value, error) {
	sess, err := t.sub(t.cl.ring.Route(string(obj)), false)
	if err != nil {
		return sem.Value{}, err
	}
	return sess.Read(obj)
}

// Apply routes to the owning shard.
func (t *clusterTx) Apply(obj core.ObjectID, operand sem.Value) error {
	sess, err := t.sub(t.cl.ring.Route(string(obj)), false)
	if err != nil {
		return err
	}
	return sess.Apply(obj, operand)
}

// Abort aborts every sub-transaction.
func (t *clusterTx) Abort() error {
	t.op.Lock()
	defer t.op.Unlock()
	subs, err := t.snapshot()
	if err != nil {
		return err
	}
	var firstErr error
	for _, sub := range subs {
		if err := sub.sess.Abort(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		t.record(core.StateAborted, core.AbortUser.String())
	}
	return firstErr
}

// Sleep parks every sub-transaction.
func (t *clusterTx) Sleep() error {
	subs, err := t.snapshot()
	if err != nil {
		return err
	}
	var firstErr error
	for _, sub := range subs {
		if err := sub.sess.Sleep(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Awake resumes every sub-transaction; the awake checks of Algorithm 9 run
// independently per shard and the verdicts merge: one shard refusing means
// the whole transaction aborts (the survivors are aborted here), exactly
// as a single-node awake refusal aborts the whole transaction.
//
// A sub-session whose shard failed over is stale — its manager died with
// the old primary. When the shard still knows the transaction as sleeping
// (a promoted follower reconstructed it from the replicated sleep journal),
// the awaken re-resolves: re-begin under the same id to adopt the
// reconstructed sleeper, swap the session in, and retry.
func (t *clusterTx) Awake() (bool, error) {
	t.op.Lock()
	defer t.op.Unlock()
	subs, err := t.snapshot()
	if err != nil {
		return false, err
	}
	resumed := true
	var firstErr error
	for si, sub := range subs {
		ok, err := sub.sess.Awake()
		if err != nil {
			if sess, rerr := t.reresolve(sub); rerr == nil {
				subs[si].sess = sess
				ok, err = sess.Awake()
			}
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			resumed = false
			continue
		}
		if !ok {
			resumed = false
		}
	}
	if !resumed {
		t.unwind(subs, core.AbortSleepConflict.String())
	}
	return resumed, firstErr
}

// unwind aborts every sub-transaction still running and records the
// transaction aborted: one participant refusing dooms them all.
func (t *clusterTx) unwind(subs []subRef, reason string) {
	for _, sub := range subs {
		if st, err := t.cl.shards[sub.idx].TxState(t.id); err == nil && !st.Terminal() {
			_ = sub.sess.Abort()
		}
	}
	t.record(core.StateAborted, reason)
}

// reresolve swaps a stale sub-session for a fresh one on its (possibly
// promoted) shard, when the shard still holds the transaction sleeping.
func (t *clusterTx) reresolve(sub subRef) (Session, error) {
	sh := t.cl.shards[sub.idx]
	st, err := sh.TxState(t.id)
	if err != nil {
		return nil, err
	}
	if st != core.StateSleeping {
		return nil, fmt.Errorf("shard: %s on shard %d is %s, not re-resumable", t.id, sub.idx, st)
	}
	sess, err := sh.Begin(t.id)
	if err != nil {
		return nil, err
	}
	var old Session
	t.mu.Lock()
	if i, ok := t.find(sub.idx); ok {
		old, t.subs[i].sess = t.subs[i].sess, sess
	}
	t.mu.Unlock()
	if old != nil {
		old.Release()
	}
	return sess, nil
}

// subStates returns the current state of every sub-transaction.
func (t *clusterTx) subStates() []core.State {
	var states []core.State
	subs, _ := t.snapshot()
	for _, sub := range subs {
		if st, err := t.cl.shards[sub.idx].TxState(t.id); err == nil {
			states = append(states, st)
		}
	}
	return states
}

// record notes the outcome and lets the transaction go: it leaves the live
// set, and its sub-sessions (a router's participant connections) close.
func (t *clusterTx) record(st core.State, reason string) {
	cl := t.cl
	cl.mu.Lock()
	cl.recordLocked(t.id, st, reason)
	if cl.txs[t.id] == t {
		delete(cl.txs, t.id)
	}
	cl.mu.Unlock()
	t.release()
}

// Commit commits the transaction. One participating shard: the shard's own
// commit pipeline, unchanged. Several: the two-phase SST protocol —
// prepare every participant in ascending shard order (a global acquisition
// order, so concurrent cross-shard commits cannot deadlock on committer
// slots), log the decision (the commit point), then decide every
// participant in parallel, each decided SST carrying the decision marker.
func (t *clusterTx) Commit(ctx context.Context) error {
	t.op.Lock()
	defer t.op.Unlock()
	subs, err := t.snapshot()
	if err != nil {
		return err
	}
	cl := t.cl
	switch len(subs) {
	case 0:
		// Nothing invoked: trivially committed.
		t.record(core.StateCommitted, "")
		return nil
	case 1:
		if err := subs[0].sess.Commit(ctx); err != nil {
			// Settled only if the shard settled it: the call may be lost.
			if st, serr := cl.shards[subs[0].idx].TxState(t.id); serr == nil && st.Terminal() {
				t.record(st, "")
			}
			return err
		}
		cl.metrics.singleCommits.Inc()
		cl.metrics.perShard[subs[0].idx].Inc()
		t.record(core.StateCommitted, "")
		return nil
	}

	// Phase 1: prepare in ascending shard order.
	participants := make([]Participant, 0, len(subs))
	for i, sub := range subs {
		writes, err := sub.sess.Prepare(ctx)
		if err != nil {
			// Presumed abort: settle the already-prepared participants,
			// abort the rest. The failing one aborted itself.
			for j, other := range subs {
				switch {
				case j < i:
					_ = other.sess.Decide(ctx, false, nil)
				case j > i:
					_ = other.sess.Abort()
				}
			}
			cl.metrics.decidesAbort.Inc()
			t.record(core.StateAborted, "")
			return fmt.Errorf("shard: prepare of %s on shard %d: %w", t.id, sub.idx, err)
		}
		cl.metrics.prepares.Inc()
		participants = append(participants, Participant{
			Shard:  sub.idx,
			Marker: MarkerWrite(t.id),
			Writes: writes,
		})
	}
	if cl.HookAfterPrepare != nil {
		cl.HookAfterPrepare(t.id)
	}

	// Commit point: the decision hits the coordinator WAL.
	d := Decision{Tx: t.id, Participants: participants}
	if err := cl.log.LogDecide(d); err != nil {
		for _, sub := range subs {
			_ = sub.sess.Decide(ctx, false, nil)
		}
		cl.metrics.decidesAbort.Inc()
		t.record(core.StateAborted, "")
		return fmt.Errorf("shard: logging decision of %s: %w", t.id, err)
	}
	cl.mu.Lock()
	cl.pending[t.id] = d
	cl.mu.Unlock()
	cl.metrics.decidesCommit.Inc()
	if cl.HookAfterLog != nil {
		cl.HookAfterLog(t.id)
	}

	// Phase 2: every participant applies its slice, all at once — past the
	// logged decision no participant's outcome depends on another's. A
	// failure here does not un-commit; the participant is brought up to
	// date by ResolveInDoubt.
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for k, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = sub.sess.Decide(ctx, true, []wire.SSTWriteJSON{participants[k].Marker})
		}()
	}
	wg.Wait()
	var lagging bool
	for k, sub := range subs {
		if err := errs[k]; err != nil {
			lagging = true
			cl.metrics.decideFails.Inc()
			cl.logger.Printf("shard: decide of %s on shard %d failed (will resolve): %v", t.id, sub.idx, err)
			continue
		}
		cl.metrics.perShard[sub.idx].Inc()
	}
	cl.metrics.crossCommits.Inc()
	t.record(core.StateCommitted, "")
	if !lagging {
		if err := cl.log.LogDone(t.id); err == nil {
			cl.mu.Lock()
			delete(cl.pending, t.id)
			cl.mu.Unlock()
		}
	}
	return nil
}

// --- helpers ---

// mergeStates folds per-shard sub-transaction states into the whole
// transaction's state. Any abort dooms the transaction (2PC unwinds the
// rest); otherwise the least-settled participant wins — a transaction is
// only as committed as its slowest shard.
func mergeStates(states []core.State) core.State {
	rank := func(s core.State) int {
		switch s {
		case core.StateAborted, core.StateAborting:
			return 0
		case core.StateActive:
			return 1
		case core.StateWaiting:
			return 2
		case core.StateSleeping:
			return 3
		case core.StateCommitting:
			return 4
		case core.StateCommitted:
			return 5
		}
		return 1
	}
	best := states[0]
	for _, s := range states[1:] {
		if rank(s) < rank(best) {
			best = s
		}
	}
	if best == core.StateAborting {
		best = core.StateAborted
	}
	return best
}

// parseState maps a State's wire name back to the State.
var stateNames = func() map[string]core.State {
	m := make(map[string]core.State)
	for st := core.StateActive; st <= core.StateAborted; st++ {
		m[st.String()] = st
	}
	return m
}()

func parseState(name string) (core.State, bool) {
	st, ok := stateNames[name]
	return st, ok
}

// liveTxs counts a shard's non-terminal transactions.
func liveTxs(sh Shard) int {
	var n int
	for _, ti := range sh.Transactions() {
		if st, ok := parseState(ti.State); ok && !st.Terminal() {
			n++
		}
	}
	return n
}

// clusterMetrics is the coordinator's metric set. It always exists —
// Stats reads it — and is registered on Config.Obs when one is given.
type clusterMetrics struct {
	singleCommits   *obs.Counter // shard_commits_total{path="single"}
	crossCommits    *obs.Counter // shard_commits_total{path="cross"}
	perShard        []*obs.Counter
	prepares        *obs.Counter
	decidesCommit   *obs.Counter
	decidesAbort    *obs.Counter
	decideFails     *obs.Counter
	replays         *obs.Counter
	heartbeatMisses *obs.Counter
}

func newClusterMetrics(reg *obs.Registry, cl *Cluster) *clusterMetrics {
	if reg == nil {
		reg = obs.NewRegistry() // private: nothing scrapes it
	}
	m := &clusterMetrics{
		singleCommits: reg.Counter(obs.WithLabel(obs.NameShardCommits, "path", "single"),
			"Cluster commits by path (single-shard fast path vs cross-shard 2PC)."),
		crossCommits: reg.Counter(obs.WithLabel(obs.NameShardCommits, "path", "cross"),
			"Cluster commits by path (single-shard fast path vs cross-shard 2PC)."),
		prepares: reg.Counter(obs.NameShard2PCPrepares, "Participant prepares issued."),
		decidesCommit: reg.Counter(obs.WithLabel(obs.NameShard2PCDecides, "decision", "commit"),
			"Coordinator decisions by verdict."),
		decidesAbort: reg.Counter(obs.WithLabel(obs.NameShard2PCDecides, "decision", "abort"),
			"Coordinator decisions by verdict."),
		decideFails: reg.Counter(obs.NameShard2PCDecideFails,
			"Participant decides that failed after the decision was logged (resolved later)."),
		replays: reg.Counter(obs.NameShard2PCReplays,
			"Decided write sets re-applied during in-doubt resolution."),
		heartbeatMisses: reg.Counter(obs.NameShardHeartbeatMisses,
			"Failed heartbeat probes across all shards."),
	}
	for i, sh := range cl.shards {
		m.perShard = append(m.perShard, reg.Counter(
			obs.WithLabel(obs.NameShardCommits, "shard", strconv.Itoa(i)),
			"Commits landed per shard."))
		i, sh := i, sh
		reg.GaugeFunc(obs.WithLabel(obs.NameShardTxLive, "shard", strconv.Itoa(i)),
			"Live (non-terminal) transactions per shard.",
			func() float64 { return float64(liveTxs(sh)) })
		reg.GaugeFunc(obs.WithLabel(obs.NameShardObjects, "shard", strconv.Itoa(i)),
			"Objects owned per shard.",
			func() float64 { return float64(len(sh.Objects())) })
	}
	reg.GaugeFunc(obs.NameShard2PCInDoubt,
		"Logged decisions not yet durable on every participant.",
		func() float64 {
			cl.mu.Lock()
			defer cl.mu.Unlock()
			return float64(len(cl.pending))
		})
	return m
}
