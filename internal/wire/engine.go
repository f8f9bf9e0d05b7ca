package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"preserial/internal/core"
	"preserial/internal/fifo"
	"preserial/internal/obs"
	"preserial/internal/sem"
)

// Owner identifies who currently drives a set of transactions: a TCP
// connection (wire.Server) or a logical gateway session (internal/gateway).
// The engine uses owners for the paper's disconnection semantics — when an
// owner goes away, its live transactions are put to sleep, not aborted —
// and for the ownership handoff that keeps a reconnecting client from
// having its freshly re-attached transaction parked by the old owner's
// teardown.
type Owner struct {
	key any // identity token; two Owners are the same iff keys are ==

	mu sync.Mutex // one owner's transactions may run on concurrent handlers
	// owned holds the live transactions begun or attached by this owner.
	// It is nil until the first one: most parked gateway sessions own
	// nothing, and DisconnectOwner gives an emptied set back.
	owned map[string]bool
}

// NewOwner creates an owner identified by key. The key must be comparable
// and unique per owner (the conn, the session struct pointer, …).
func NewOwner(key any) *Owner {
	return &Owner{key: key}
}

// Owned lists the transaction ids this owner has begun or attached that
// have not yet reached a terminal outcome under it.
func (o *Owner) Owned() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.owned))
	for id := range o.owned {
		out = append(out, id)
	}
	return out
}

// Forget drops tx from the owner's owned set. The engine forgets a
// transaction when it reaches its terminal outcome, and the gateway prunes
// a parked session's owned list against the engine on resume — either way,
// a finished transaction stops costing the owner bytes.
func (o *Owner) Forget(tx string) {
	o.mu.Lock()
	delete(o.owned, tx)
	o.mu.Unlock()
}

// remember adds tx to the owned set.
func (o *Owner) remember(tx string) {
	o.mu.Lock()
	if o.owned == nil {
		o.owned = make(map[string]bool)
	}
	o.owned[tx] = true
	o.mu.Unlock()
}

// release gives back the owned set's storage if nothing is left in it. A
// map keeps its buckets when emptied, so a finished transaction would
// otherwise cost a parked owner a map for good. A connected owner keeps
// its set across transactions instead: that path allocates nothing per
// transaction.
func (o *Owner) release() {
	o.mu.Lock()
	if len(o.owned) == 0 {
		o.owned = nil
	}
	o.mu.Unlock()
}

// EngineOptions configures NewEngine.
type EngineOptions struct {
	// Logger receives engine events; nil silences them.
	Logger *log.Logger
	// InvokeTimeout bounds a blocking invoke; zero means no limit.
	InvokeTimeout time.Duration
	// Retention is how long the engine keeps a finished transaction's
	// terminal reply for replay before it forgets the transaction.
	// Zero means 10 minutes; negative retains forever.
	Retention time.Duration
	// Obs, when non-nil, receives the engine's replay/drain counters.
	Obs *obs.Registry
}

// Engine executes protocol requests against a Backend. It owns everything
// that is independent of how requests arrive: the transaction-id → Session
// registry, the per-transaction exactly-once replay windows, ownership and
// the disconnection semantics, the retention of finished transactions, and
// graceful drain. Front ends — the classic one-goroutine-per-connection
// wire.Server and the multiplexing internal/gateway — own framing,
// connection lifecycle, and scheduling, and call Serve for each request.
// Engine methods are safe for concurrent use.
type Engine struct {
	b             Backend
	log           *log.Logger
	invokeTimeout time.Duration
	retention     time.Duration

	obs         *obs.Registry // nil when observability is off
	replays     *obs.Counter  // nil when observability is off
	drainSleeps *obs.Counter  // nil when observability is off

	baseCtx  context.Context // canceled on Stop/Drain to unblock waits
	baseStop context.CancelFunc

	mu  sync.Mutex
	txs map[string]*txEntry
	// Finished transactions in finishing order, split at the count bound:
	// the newest core.TerminalRetention, then older ones keeping a reply.
	recent, kept fifo.Queue[*txEntry]
	orphans      map[*txEntry]bool // live, and nobody drives them (see reapOrphans)
	stopSweep    chan struct{}
	stopped      bool
}

// txEntry is everything the engine holds for one transaction id. A queued
// entry that is no longer txs[tx] was swept or its id reused: it is skipped.
type txEntry struct {
	tx    string
	sess  Session      // nil while its begin runs and once past the count bound
	owner any          // key of the latest Owner driving it
	dedup *dedupWindow // nil until a sequenced request, and past the count bound
	reply              // set when the transaction finishes
}

// reply is a finished transaction's terminal reply and the sequence number
// it answered, JSON-encoded: tens of bytes where the session, ownership and
// dedup window it outlives take most of a kilobyte.
type reply struct {
	seq  uint64 // 0: the terminal op was not sequenced, nothing to replay
	json string
	at   time.Time // when the transaction finished; zero while it runs
}

func (ent *txEntry) finished() bool { return !ent.at.IsZero() }

// NewEngine builds an Engine over a Backend.
func NewEngine(b Backend, opts EngineOptions) *Engine {
	lg := opts.Logger
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	retention := opts.Retention
	if retention == 0 {
		retention = 10 * time.Minute
	}
	baseCtx, baseStop := context.WithCancel(context.Background())
	e := &Engine{
		b:             b,
		log:           lg,
		invokeTimeout: opts.InvokeTimeout,
		retention:     retention,
		baseCtx:       baseCtx,
		baseStop:      baseStop,
		txs:           make(map[string]*txEntry),
		orphans:       make(map[*txEntry]bool),
	}
	if opts.Obs != nil {
		e.obs = opts.Obs
		e.replays = opts.Obs.Counter(obs.NameWireReplayedResponses,
			"Retried mutating requests answered from the exactly-once window.")
		e.drainSleeps = opts.Obs.Counter(obs.NameDrainSleeping,
			"Live transactions put to sleep by a graceful drain.")
	}
	return e
}

// Backend returns the backend the engine executes against.
func (e *Engine) Backend() Backend { return e.b }

// StartSweep launches the periodic finished-transaction sweeper (idempotent;
// a no-op when retention is negative or the engine is stopped).
func (e *Engine) StartSweep() {
	if e.retention <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped || e.stopSweep != nil {
		return
	}
	e.stopSweep = make(chan struct{})
	go e.sweepLoop(e.stopSweep)
}

// Stop cancels blocking waits and the sweeper. It does not touch the
// Backend; callers drain or close their front ends around it.
func (e *Engine) Stop() {
	e.mu.Lock()
	e.stopped = true
	if e.stopSweep != nil {
		close(e.stopSweep)
		e.stopSweep = nil
	}
	e.mu.Unlock()
	e.baseStop()
}

// sweepLoop periodically forgets long-finished transactions.
func (e *Engine) sweepLoop(stop chan struct{}) {
	t := time.NewTicker(e.retention / 4)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			e.Sweep(e.retention)
			e.reapOrphans()
		}
	}
}

// Sweep forgets every transaction that finished more than olderThan ago and
// returns the ids removed. It asks the backend nothing: the GTM retires its
// records by count, so a swept id's state stays answerable until then.
func (e *Engine) Sweep(olderThan time.Duration) []string {
	cut := time.Now().Add(-olderThan)
	var removed []string
	e.mu.Lock()
	// Every kept entry finished before every recent one.
	for _, q := range []*fifo.Queue[*txEntry]{&e.kept, &e.recent} {
		for q.Len() > 0 && !q.Front().at.After(cut) {
			if ent := q.Front(); e.txs[ent.tx] == ent {
				delete(e.txs, ent.tx)
				removed = append(removed, ent.tx)
			}
			q.Pop()
		}
	}
	e.mu.Unlock()
	if len(removed) > 0 {
		e.log.Printf("wire: swept %d finished transactions", len(removed))
	}
	return removed
}

// reapOrphans finishes every transaction left without an owner that the
// GTM has since ended on its own, a sleeper its supervisor aborted say: no
// request would ever tell the engine. It costs one state probe per orphan.
func (e *Engine) reapOrphans() {
	e.mu.Lock()
	ids := make([]string, 0, len(e.orphans))
	for ent := range e.orphans {
		ids = append(ids, ent.tx)
	}
	e.mu.Unlock()
	for _, id := range ids {
		if st, err := e.b.TxState(id); err != nil || st.Terminal() {
			e.finish(id, reply{}, NewOwner(nil))
		}
	}
}

// DrainReport summarizes a graceful drain.
type DrainReport struct {
	// Slept is how many live transactions were put to sleep (they survive
	// in the GTM and can be attached + awakened after a restart).
	Slept int
	// CommitsFlushed is false when in-flight commits were still resolving
	// when the drain timeout expired.
	CommitsFlushed bool
}

// Drain performs the backend half of a graceful shutdown: cancel blocking
// invokes/commits so no handler is stuck, put every Active or Waiting
// transaction to sleep (a restarted server's clients re-attach and awaken),
// and wait up to timeout for in-flight commits to resolve. Front ends stop
// accepting before calling it and hang up after.
func (e *Engine) Drain(timeout time.Duration) DrainReport {
	e.Stop()

	slept := e.b.SleepAllLive()
	if e.drainSleeps != nil {
		e.drainSleeps.Add(uint64(len(slept)))
	}
	for _, id := range slept {
		e.log.Printf("wire: drain put %s to sleep", id)
	}

	// Commits past their commit point (SST possibly in flight) must finish
	// before the process exits, or an acknowledged-but-unpublished outcome
	// could be lost.
	deadline := time.Now().Add(timeout)
	flushed := true
	committing, aborting := core.StateCommitting.String(), core.StateAborting.String()
	for {
		busy := false
		for _, ti := range e.b.Transactions() {
			if ti.State == committing || ti.State == aborting {
				busy = true
				break
			}
		}
		if !busy {
			break
		}
		if timeout > 0 && time.Now().After(deadline) {
			flushed = false
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return DrainReport{Slept: len(slept), CommitsFlushed: flushed}
}

// Serve executes one request on behalf of owner, wrapping dispatch with the
// exactly-once replay window: a mutating request carrying a sequence number
// executes at most once per transaction, however many times a reconnecting
// client retries it. A retry that races the original (still executing on
// another owner's handler) waits for the original's outcome instead of
// executing concurrently.
func (e *Engine) Serve(req *Request, owner *Owner) *Response {
	if req.Seq == 0 || req.Tx == "" || !req.Op.Mutating() {
		resp := e.dispatch(req, owner)
		e.settle(req, resp, owner)
		return resp
	}
	e.mu.Lock()
	ent := e.txs[req.Tx]
	var w *dedupWindow
	switch {
	case ent != nil && ent.dedup != nil:
		w = ent.dedup
	case ent != nil && ent.sess == nil && ent.seq == req.Seq:
		e.mu.Unlock()
		return e.replay(ent.reply)
	case ent == nil && req.Op == OpBegin:
		ent = &txEntry{tx: req.Tx}
		e.txs[req.Tx] = ent
		fallthrough
	case ent != nil && ent.sess != nil:
		w = newDedupWindow(DefaultDedupWindow)
		ent.dedup = w
	default:
		// Nothing to deduplicate: dispatch refuses the request, and a
		// window here would never be freed.
		e.mu.Unlock()
		return e.dispatch(req, owner)
	}
	e.mu.Unlock()
	entry, fresh, err := w.admit(req.Seq)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	if fresh {
		resp := e.dispatch(req, owner)
		w.finish(entry, resp)
		// A transaction that just reached its terminal outcome will never
		// send another mutating request, so every earlier entry's response
		// is dead weight: collapse the window to the terminal entry alone.
		// (Keeping that one entry is what lets a reconnecting client replay
		// the terminal op it never got an answer for; see finish.)
		switch {
		case e.settle(req, resp, owner):
			w.collapse(req.Seq)
		case req.Op == OpBegin && !resp.OK:
			// Nothing began, so no sweep would ever free the entry.
			e.mu.Lock()
			if ent := e.txs[req.Tx]; ent != nil && ent.sess == nil && ent.dedup == w {
				delete(e.txs, req.Tx)
			}
			e.mu.Unlock()
		}
		return resp
	}
	select {
	case <-entry.done:
	case <-e.baseCtx.Done():
		return &Response{Err: "wire: server draining"}
	}
	cached := w.response(entry)
	if e.replays != nil {
		e.replays.Inc()
	}
	// Retries arrive on fresh connections: adopt ownership so the
	// disconnection semantics follow the client to its new owner.
	if req.Op == OpBegin {
		e.Adopt(req.Tx, owner)
	}
	replay := *cached
	replay.Replayed = true
	return &replay
}

// terminal reports whether resp leaves the transaction terminal: a
// successful commit, abort or decide, or an awake that found the sleeper
// invalidated.
func terminal(req *Request, resp *Response) bool {
	switch {
	case !resp.OK:
		return false
	case req.Op == OpCommit, req.Op == OpAbort, req.Op == OpDecide:
		return true
	default:
		return req.Op == OpAwake && !resp.Resumed
	}
}

// settle finishes req's transaction if resp leaves it terminal, and reports
// whether it did. A failed mutating request may leave it terminal too (a
// commit the CHECK constraint refused, a wait the supervisor timed out):
// one backend probe decides, and a terminal or unknown state finishes it.
func (e *Engine) settle(req *Request, resp *Response, owner *Owner) bool {
	if !terminal(req, resp) {
		if resp.OK || req.Tx == "" || !req.Op.Mutating() || req.Op == OpBegin {
			return false
		}
		sess, _ := e.lookup(req.Tx)
		if ro, ok := sess.(ReadOnlySession); sess == nil || ok && ro.ReadOnly() {
			return false // a snapshot ends only by commit or abort
		}
		if st, err := e.b.TxState(req.Tx); err == nil && !st.Terminal() {
			return false
		}
	}
	r := reply{seq: req.Seq}
	if r.seq != 0 {
		b, _ := json.Marshal(resp) // encodes as the front end sends it
		r.json = string(b)
	}
	return e.finish(req.Tx, r, owner)
}

// finish records that tx finished with reply r, and reports whether it had
// not finished before. The owner stops tracking it, which keeps a parked
// gateway session's byte cost flat however many transactions it has run.
// Past the newest core.TerminalRetention finished transactions (read-only
// sessions counted, so not the GTM's set), an entry keeps only a sequenced
// terminal reply, all that a client which lost it needs: its retry is still
// replayed, attach succeeds and begin refuses the id until the age sweep.
func (e *Engine) finish(tx string, r reply, owner *Owner) bool {
	owner.Forget(tx)
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.txs[tx]
	if ent == nil || ent.sess == nil || ent.finished() {
		return false
	}
	delete(e.orphans, ent)
	r.at = time.Now()
	ent.reply = r
	e.recent.Push(ent)
	for e.recent.Len() > core.TerminalRetention {
		old := e.recent.Front()
		e.recent.Pop()
		if e.txs[old.tx] != old {
			continue
		}
		old.sess, old.owner, old.dedup = nil, nil, nil
		if old.seq == 0 {
			delete(e.txs, old.tx) // nothing to replay
			continue
		}
		e.kept.Push(old)
	}
	return true
}

// replay answers a retry from a kept terminal reply.
func (e *Engine) replay(r reply) *Response {
	var resp Response
	if err := json.Unmarshal([]byte(r.json), &resp); err != nil {
		return &Response{Err: fmt.Sprintf("wire: kept reply unreadable: %v", err)}
	}
	if e.replays != nil {
		e.replays.Inc()
	}
	resp.Replayed = true
	return &resp
}

// Adopt registers owner as the latest driver of tx.
func (e *Engine) Adopt(tx string, owner *Owner) {
	owner.remember(tx)
	e.mu.Lock()
	if ent := e.txs[tx]; ent != nil {
		ent.owner = owner.key
		delete(e.orphans, ent)
	}
	e.mu.Unlock()
}

// DisconnectOwner implements the mobile-disconnection semantics: every
// transaction begun (or attached) by the lost owner that is still Active or
// Waiting goes to sleep and can be attached + awakened later; one that has
// ended is finished. A transaction whose ownership has moved to a newer
// owner (the client re-attached before this teardown ran) is left alone —
// without this check the dying owner would put a freshly re-attached
// transaction back to sleep under its new owner. An owner left with
// nothing live gives back its owned set.
func (e *Engine) DisconnectOwner(owner *Owner) {
	defer owner.release()
	for _, id := range owner.Owned() {
		e.mu.Lock()
		ent := e.txs[id]
		if ent == nil || ent.sess == nil || ent.finished() || ent.owner != nil && ent.owner != owner.key {
			e.mu.Unlock()
			continue // finished, or re-attached elsewhere meanwhile
		}
		ent.owner = nil
		e.orphans[ent] = true // until it finishes or an owner adopts it
		sess := ent.sess
		e.mu.Unlock()
		if ro, ok := sess.(ReadOnlySession); ok && ro.ReadOnly() {
			// Snapshots cannot sleep, and an orphaned pin would hold
			// version GC back indefinitely — close it; a reconnecting
			// client re-begins at a fresh pin.
			_ = sess.Abort()
			e.finish(id, reply{}, owner)
			e.log.Printf("wire: owner lost, read-only snapshot %s closed", id)
			continue
		}
		st, err := e.b.TxState(id)
		switch {
		case err != nil || st.Terminal():
			e.finish(id, reply{}, owner)
		case st == core.StateActive || st == core.StateWaiting:
			if err := e.b.Sleep(id); err == nil {
				e.log.Printf("wire: owner lost, transaction %s now sleeping", id)
			}
		}
	}
}

// lookup returns tx's registered session (nil if none) and whether it finished.
func (e *Engine) lookup(tx string) (Session, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent := e.txs[tx]; ent != nil {
		return ent.sess, ent.finished()
	}
	return nil, false
}

// Knows reports whether the engine has a session registered for tx.
func (e *Engine) Knows(tx string) bool {
	sess, _ := e.lookup(tx)
	return sess != nil
}

// dispatch executes one request.
func (e *Engine) dispatch(req *Request, owner *Owner) *Response {
	fail := func(err error) *Response { return &Response{Err: err.Error()} }
	// Every op on a transaction but begin runs on its registered session.
	var c Session
	if req.Op.Mutating() && req.Op != OpBegin || req.Op == OpRead && (req.Tx != "" || !req.ReadOnly) {
		if c, _ = e.lookup(req.Tx); c == nil {
			return fail(fmt.Errorf("wire: unknown transaction %q (begin or attach first)", req.Tx))
		}
	}
	switch req.Op {
	case OpPing:
		return &Response{OK: true}

	case OpBegin:
		if req.Tx == "" {
			return fail(errors.New("wire: begin needs a tx id"))
		}
		held, done := e.lookup(req.Tx)
		if done {
			return fail(fmt.Errorf("wire: transaction %q already exists (finished)", req.Tx))
		}
		var err error
		if req.ReadOnly {
			sb, ok := e.b.(SnapshotBackend)
			if !ok {
				return fail(errors.New("wire: backend does not support read-only snapshot transactions"))
			}
			if held != nil {
				return fail(fmt.Errorf("wire: transaction %q already exists", req.Tx))
			}
			c, err = sb.BeginSnapshot(req.Tx)
		} else {
			c, err = e.b.Begin(req.Tx)
		}
		if err != nil {
			return fail(err)
		}
		e.mu.Lock()
		ent := e.txs[req.Tx]
		if ent == nil || ent.sess != nil {
			ent = &txEntry{tx: req.Tx}
			e.txs[req.Tx] = ent
		}
		ent.sess = c
		e.mu.Unlock()
		e.Adopt(req.Tx, owner)
		return &Response{OK: true}

	case OpAttach:
		switch held, done := e.lookup(req.Tx); {
		case held != nil:
			e.Adopt(req.Tx, owner)
		case !done:
			return fail(fmt.Errorf("wire: no transaction %q to attach", req.Tx))
		}
		// A transaction past the count bound has nothing left to drive,
		// but a retry of its terminal op still gets the recorded reply.
		return &Response{OK: true}

	case OpInvoke:
		class, err := ParseClass(req.Class)
		if err != nil {
			return fail(err)
		}
		ctx := e.baseCtx
		if e.invokeTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.invokeTimeout)
			defer cancel()
		}
		if err := c.Invoke(ctx, core.ObjectID(req.Object), sem.Op{Class: class, Member: req.Member}); err != nil {
			return fail(err)
		}
		return &Response{OK: true, Granted: true}

	case OpRead:
		if c == nil {
			// One-shot snapshot read: no transaction, no monitor — pin,
			// read, release, all in this single round trip.
			sb, ok := e.b.(SnapshotBackend)
			if !ok {
				return fail(errors.New("wire: backend does not support snapshot reads"))
			}
			wv, err := sb.SnapshotRead(req.Object, req.Member)
			if err != nil {
				return fail(err)
			}
			return &Response{OK: true, Value: &wv}
		}
		v, err := c.Read(core.ObjectID(req.Object))
		if err != nil {
			return fail(err)
		}
		wv := FromSem(v)
		return &Response{OK: true, Value: &wv}

	case OpApply:
		if req.Operand == nil {
			return fail(errors.New("wire: apply needs an operand"))
		}
		operand, err := req.Operand.ToSem()
		if err != nil {
			return fail(err)
		}
		if err := c.Apply(core.ObjectID(req.Object), operand); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case OpCommit:
		if err := c.Commit(e.baseCtx); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case OpAbort:
		if err := c.Abort(); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case OpSleep:
		if err := c.Sleep(); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case OpAwake:
		resumed, err := c.Awake()
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Resumed: resumed}

	case OpPrepare:
		tp, ok := c.(TwoPhaseSession)
		if !ok {
			return fail(errors.New("wire: backend does not support two-phase commit"))
		}
		writes, err := tp.Prepare(e.baseCtx)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Writes: writes}

	case OpDecide:
		tp, ok := c.(TwoPhaseSession)
		if !ok {
			return fail(errors.New("wire: backend does not support two-phase commit"))
		}
		if err := tp.Decide(e.baseCtx, req.Decision, req.Writes); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case OpReplay:
		rb, ok := e.b.(ReplayBackend)
		if !ok {
			return fail(errors.New("wire: backend does not support decision replay"))
		}
		if req.Marker == nil {
			return fail(errors.New("wire: replay needs a decision marker"))
		}
		applied, err := rb.ReplayDecided(req.Tx, *req.Marker, req.Writes)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Applied: applied}

	case OpShards:
		sb, ok := e.b.(ShardBackend)
		if !ok {
			return fail(errors.New("wire: not a sharded deployment"))
		}
		resp := &Response{OK: true, Shards: sb.Topology()}
		if req.Object != "" {
			idx, err := sb.Route(req.Object)
			if err != nil {
				return fail(err)
			}
			resp.Shard = &idx
		}
		return resp

	case OpState:
		st, err := e.b.TxState(req.Tx)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, State: st.String()}

	case OpObjects:
		return &Response{OK: true, Objects: e.b.Objects()}

	case OpStats:
		resp := &Response{OK: true}
		if !req.ReadOnly {
			// Copying the backend counters enters the GTM monitor; a
			// read_only stats op skips it and returns only the registry
			// snapshot, so measuring monitor freedom does not perturb the
			// measured counter.
			resp.Stats = e.b.Stats()
		}
		if e.obs != nil {
			resp.Metrics = e.obs.Snapshot()
		}
		return resp

	case OpInfo:
		info, err := e.b.ObjectInfo(req.Object)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Info: info}

	case OpTxs:
		return &Response{OK: true, Txs: e.b.Transactions()}

	case OpGwAttach, OpGwDetach:
		// Session control belongs to the gateway's session layer, which
		// claims these frames before Serve; a bare Server refuses.
		return fail(errors.New("wire: not a gateway (gw.attach/gw.detach need a server with the gateway session layer)"))

	default:
		return fail(fmt.Errorf("wire: unknown op %q", req.Op))
	}
}
