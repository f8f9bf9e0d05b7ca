package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"preserial/internal/clock"
	"preserial/internal/sem"
)

// Differential test of Algorithm 9's awake verdict. The manager decides a
// sleeper's doom when a conflicting commit publishes; the reference here is
// the awake-time walk the manager used before, on a test-local log of every
// publish (object, transaction, op, sequence): a sleeper aborts on awake iff
// a transaction now holding one of its objects conflicts with its op there,
// or an op that conflicts with its op on that object published after the
// sleep began. Every awake verdict, and the commit an abort is blamed on,
// must match the reference.

// awakeSource feeds a schedule its choices: a seeded generator, or the
// bytes of a fuzz input.
type awakeSource interface {
	intn(n int) int
	exhausted() bool
}

type rngSource struct{ *rand.Rand }

func (r rngSource) intn(n int) int { return r.Intn(n) }
func (rngSource) exhausted() bool  { return false }

// byteSource consumes one byte per choice.
type byteSource []byte

func (b *byteSource) intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

func (b *byteSource) exhausted() bool { return len(*b) == 0 }

// publishRec is one per-object operation of one publish.
type publishRec struct {
	obj ObjectID
	tx  TxID
	op  sem.Op
	seq uint64
}

// awakeStats counts what a schedule exercised.
type awakeStats struct {
	awakes, resumed, doomed, holderAborts, waiterDooms int
}

// awakeDiff runs one schedule against a manager and the reference walk.
type awakeDiff struct {
	t        *testing.T
	m        *Manager
	conflict ConflictFunc
	src      awakeSource

	ops      map[TxID]map[ObjectID]sem.Op // invocations the manager accepted
	sleepSeq map[TxID]uint64              // publish count when the current sleep began
	log      []publishRec
	seq      uint64
	histLen  int  // WithHistory entries already in log
	lastTx   TxID // the transaction of the last of them
	live     []TxID
	prepared []TxID
	nextTx   int
	stats    awakeStats
}

// awakeObjects are atomic objects a..d and a structured object p whose two
// members are independent.
var awakeObjects = []ObjectID{"a", "b", "c", "d", "p"}

var awakeClasses = []sem.Class{sem.AddSub, sem.MulDiv, sem.Assign, sem.InsertDelete, sem.Read}

func newAwakeDiff(t *testing.T, src awakeSource, strict bool) *awakeDiff {
	conflict := ConflictFunc(sem.OpsConflict)
	if strict {
		conflict = StrictRWConflict
	}
	store := NewMemStore()
	m := NewManager(store, WithClock(clock.NewManual()), WithHistory(), WithConflictFunc(conflict))
	for _, id := range awakeObjects {
		refs := map[string]StoreRef{"": {Table: "T", Key: string(id), Column: "v"}}
		if id == "p" {
			refs = map[string]StoreRef{
				"x": {Table: "T", Key: "p", Column: "x"},
				"y": {Table: "T", Key: "p", Column: "y"},
			}
		}
		for _, ref := range refs {
			store.Seed(ref, sem.Int(100))
		}
		if err := m.RegisterObject(id, refs, nil); err != nil {
			t.Fatal(err)
		}
	}
	return &awakeDiff{
		t: t, m: m, conflict: conflict, src: src,
		ops: map[TxID]map[ObjectID]sem.Op{}, sleepSeq: map[TxID]uint64{},
	}
}

// sync appends the publishes since the last call to the log, reading the
// WithHistory log in place (a schedule stays far below historyRetention,
// so no chunk is dropped). The log lists a publish's operations together,
// so a change of transaction marks the next publish.
func (d *awakeDiff) sync() {
	defer d.m.mon.enter(d.m)()
	for c := d.histLen / historyChunk; c < len(d.m.history); c++ {
		chunk := d.m.history[c]
		for _, e := range chunk[d.histLen-c*historyChunk:] {
			if e.Tx != d.lastTx {
				d.seq++
				d.lastTx = e.Tx
			}
			d.log = append(d.log, publishRec{obj: e.Object, tx: e.Tx, op: e.Op, seq: d.seq})
			d.histLen++
		}
	}
}

// pick favours older transactions, so none sleeps or waits forever.
func (d *awakeDiff) pick() TxID {
	return d.live[min(d.src.intn(len(d.live)), d.src.intn(len(d.live)))]
}

func (d *awakeDiff) state(id TxID) State {
	st, err := d.m.TxState(id)
	if err != nil {
		d.t.Fatal(err)
	}
	return st
}

// sleep puts id to sleep and, when the manager accepts, stamps the sleep
// with the publish count.
func (d *awakeDiff) sleep(id TxID) {
	d.sync()
	if d.m.Sleep(id) == nil {
		d.sleepSeq[id] = d.seq
	}
}

// expect is the reference verdict: whether an awake of id now aborts, and
// the first commit since its sleep that conflicts with one of its ops
// ("" when none did).
func (d *awakeDiff) expect(id TxID) (abort bool, doomer TxID, viaWaiter bool) {
	d.sync()
	for _, r := range d.log {
		if op, ok := d.ops[id][r.obj]; ok && r.seq > d.sleepSeq[id] && r.tx != id && d.conflict(op, r.op, nil) {
			doomer = r.tx
			break
		}
	}
	defer d.m.mon.enter(d.m)()
	for obj, op := range d.ops[id] {
		o := d.m.objs.get(obj)
		for i := range o.holders {
			if h := &o.holders[i]; h.tx != id && d.conflict(op, h.op, nil) {
				abort = true
			}
		}
		if doomer != "" && o.waiterFor(id) != nil {
			for _, r := range d.log {
				if r.tx == doomer && r.obj == obj && d.conflict(op, r.op, nil) {
					viaWaiter = true
				}
			}
		}
	}
	return abort || doomer != "", doomer, viaWaiter
}

// awake checks the manager's verdict for a sleeping id against the
// reference.
func (d *awakeDiff) awake(id TxID) {
	if d.state(id) != StateSleeping {
		_, _ = d.m.Awake(id) // refused: not a verdict
		return
	}
	abort, doomer, viaWaiter := d.expect(id)
	resumed, err := d.m.Awake(id)
	if err != nil {
		d.t.Fatalf("Awake(%s): %v", id, err)
	}
	d.stats.awakes++
	if resumed == abort {
		d.t.Fatalf("Awake(%s) resumed=%v; the history walk says abort=%v (doomer %q)", id, resumed, abort, doomer)
	}
	if resumed {
		d.stats.resumed++
		return
	}
	info, err := d.m.TxInfo(id)
	if err != nil {
		d.t.Fatal(err)
	}
	var doom *DoomError
	switch {
	case doomer == "" && info.Err != nil:
		d.t.Fatalf("Awake(%s) aborted on a current holder, cause %v; want none", id, info.Err)
	case doomer == "":
		d.stats.holderAborts++
	case !errors.As(info.Err, &doom) || doom.By != doomer:
		d.t.Fatalf("Awake(%s) aborted with cause %v; the first conflicting commit since its sleep is %s", id, info.Err, doomer)
	default:
		d.stats.doomed++
		if viaWaiter {
			d.stats.waiterDooms++
		}
	}
}

// begin starts a transaction and invokes 2–4 objects, stopping at the
// first invocation that queues or is refused.
func (d *awakeDiff) begin() {
	id := TxID(fmt.Sprintf("t%d", d.nextTx))
	d.nextTx++
	if err := d.m.Begin(id); err != nil {
		d.t.Fatal(err)
	}
	d.live = append(d.live, id)
	d.ops[id] = map[ObjectID]sem.Op{}
	n := 2 + d.src.intn(3)
	perm := rand.New(rand.NewSource(int64(d.src.intn(1 << 16)))).Perm(len(awakeObjects))
	for _, oi := range perm[:n] {
		obj := awakeObjects[oi]
		op := sem.Op{Class: awakeClasses[d.src.intn(len(awakeClasses))]}
		if obj == "p" {
			op.Member = []string{"x", "y"}[d.src.intn(2)]
		}
		granted, err := d.m.Invoke(id, obj, op)
		if err != nil {
			return
		}
		d.ops[id][obj] = op
		if !granted {
			return
		}
		d.apply(id, obj, op)
	}
}

func (d *awakeDiff) apply(id TxID, obj ObjectID, op sem.Op) {
	if !op.Class.IsUpdate() {
		return
	}
	operand := sem.Int(int64(d.src.intn(5) + 1))
	if op.Class == sem.InsertDelete && d.src.intn(4) == 0 {
		operand = sem.Null()
	}
	_ = d.m.Apply(id, obj, operand)
}

// step runs one scheduled action.
func (d *awakeDiff) step() {
	const maxLive = 10
	if len(d.live) == 0 {
		d.begin()
		return
	}
	switch k := d.src.intn(100); {
	case len(d.live) >= maxLive: // settle the oldest, whatever state it is in
		id := d.live[0]
		d.awake(id)
		_ = d.m.Abort(id)
		_ = d.m.Decide(id, false)
	case k < 20:
		d.begin()
	case k < 27: // apply again on a held object
		id, first := d.pick(), d.src.intn(len(awakeObjects))
		for i := range awakeObjects {
			obj := awakeObjects[(first+i)%len(awakeObjects)]
			if op, ok := d.ops[id][obj]; ok {
				d.apply(id, obj, op)
				break
			}
		}
	case k < 42:
		_ = d.m.RequestCommit(d.pick())
	case k < 47:
		if id := d.pick(); d.m.PrepareCommit(id) == nil {
			d.prepared = append(d.prepared, id)
		}
	case k < 53:
		if len(d.prepared) > 0 {
			_ = d.m.Decide(d.prepared[d.src.intn(len(d.prepared))], d.src.intn(4) > 0)
		}
	case k < 70: // sleep, from Active or Waiting
		d.sleep(d.pick())
	case k < 72:
		d.sync()
		for _, id := range d.m.SleepAllLive() {
			d.sleepSeq[id] = d.seq
		}
	case k < 88:
		d.awake(d.pick())
	case k < 93: // sleep → awake → sleep
		id := d.pick()
		d.sleep(id)
		d.awake(id)
		d.sleep(id)
	default:
		_ = d.m.Abort(d.pick())
	}
	terminal := func(id TxID) bool { return d.state(id).Terminal() }
	d.live = dropIf(d.live, terminal)
	d.prepared = dropIf(d.prepared, terminal)
}

// runAwakeDiff runs up to steps actions (fewer when a fuzz input runs
// out), then wakes every sleeper left so its verdict is checked too.
func runAwakeDiff(t *testing.T, src awakeSource, strict bool, steps int) awakeStats {
	d := newAwakeDiff(t, src, strict)
	for i := 0; i < steps && !src.exhausted(); i++ {
		d.step()
		if i%32 == 0 {
			checkInvariants(t, d.m, i)
		}
	}
	for _, id := range d.live {
		d.awake(id)
	}
	checkInvariants(t, d.m, steps)
	return d.stats
}

func TestAwakeVerdictDifferential(t *testing.T) {
	seeds, steps := 240, 400
	if testing.Short() {
		seeds, steps = 40, 300
	}
	var total awakeStats
	for seed := 1; seed <= seeds; seed++ {
		st := runAwakeDiff(t, rngSource{rand.New(rand.NewSource(int64(seed)))}, seed%2 == 0, steps)
		total.awakes += st.awakes
		total.resumed += st.resumed
		total.doomed += st.doomed
		total.holderAborts += st.holderAborts
		total.waiterDooms += st.waiterDooms
	}
	t.Logf("%d seeds: %d awakes, %d resumed, %d doomed by a commit (%d through a queued invocation), %d aborted on a current holder",
		seeds, total.awakes, total.resumed, total.doomed, total.waiterDooms, total.holderAborts)
	if total.resumed == 0 || total.doomed == 0 || total.waiterDooms == 0 || total.holderAborts == 0 {
		t.Fatalf("the schedules left a verdict unexercised: %+v", total)
	}
}

func FuzzAwakeVerdict(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 60, 80, 30, 75, 1, 2, 3, 4, 5, 85, 90})
	f.Add([]byte("sleep, commit, awake: the doom must be decided at publish"))
	seed := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		src := byteSource(data[1:])
		runAwakeDiff(t, &src, data[0]%2 == 1, 300)
	})
}

// TestDoomNamesCommit: the commit that dooms a sleeper is recorded when it
// publishes, and the sleeper's abort names it.
func TestDoomNamesCommit(t *testing.T) {
	m, _, _ := testManager(t)
	if err := m.Begin(""); !errors.Is(err, ErrBadState) {
		t.Fatalf("Begin of an empty id = %v; the id could not name a doom", err)
	}
	var got Event
	mustBegin(t, m, "S", WithNotify(func(ev Event) {
		if ev.Type == EvAborted {
			got = ev
		}
	}))
	mustInvoke(t, m, "S", "X", addOp)
	if err := m.Apply("S", "X", sem.Int(-2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Sleep("S"); err != nil {
		t.Fatal(err)
	}
	commitOn(t, m, "T", "X", assignOp)
	commitOn(t, m, "U", "X", assignOp)
	if resumed, err := m.Awake("S"); err != nil || resumed {
		t.Fatalf("Awake(S) = %v, %v: T's Assign committed during the sleep", resumed, err)
	}
	info, err := m.TxInfo("S")
	if err != nil {
		t.Fatal(err)
	}
	var doom *DoomError
	if info.Reason != AbortSleepConflict || !errors.As(info.Err, &doom) || doom.By != "T" {
		t.Fatalf("S aborted (%s) with cause %v; want a sleep conflict doomed by T", info.Reason, info.Err)
	}
	if !errors.As(got.Err, &doom) || doom.By != "T" {
		t.Fatalf("S's EvAborted carries %v; want the doom by T", got.Err)
	}
}

// TestSleeperPinsNothing: a sleeper holds the objects it invoked, not the
// history or versions of every other object. The heap growth over
// 10 × TerminalRetention commits on other objects stays within twice that
// of the same run with nobody asleep.
func TestSleeperPinsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under the race detector")
	}
	const objects = 64
	growth := func(sleeper bool) int64 {
		m := virtualManager(t, objects)
		if sleeper {
			mustBegin(t, m, "S")
			mustInvoke(t, m, "S", "o0", addOp)
			if err := m.Sleep("S"); err != nil {
				t.Fatal(err)
			}
		}
		run := func(from, to int) {
			for i := from; i < to; i++ {
				commitOn(t, m, TxID(fmt.Sprintf("c%d", i)), ObjectID(fmt.Sprintf("o%d", 1+i%(objects-1))), addOp)
			}
		}
		heap := func() int64 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		}
		run(0, 2*TerminalRetention) // the registry fills to its bound
		before := heap()
		run(2*TerminalRetention, 12*TerminalRetention)
		after := heap()
		if sleeper {
			mustState(t, m, "S", StateSleeping)
		}
		runtime.KeepAlive(m)
		return after - before
	}
	without, with := growth(false), growth(true)
	const commits = 10 * TerminalRetention
	t.Logf("heap growth over %d commits: %d B without a sleeper (%.1f B/commit), %d B with one (%.1f B/commit)",
		commits, without, float64(without)/commits, with, float64(with)/commits)
	// The floor keeps a near-zero baseline from turning noise into a
	// failure; a sleeper that pins every object's history costs 27 MB.
	if limit := 2 * max(without, 1<<20); with > limit {
		t.Fatalf("one sleeper grew the heap by %d B over %d commits on other objects; bound is %d B", with, commits, limit)
	}
}
