package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"preserial/internal/clock"
	"preserial/internal/sem"
)

// Differential test of the horizon queue. The reference is the pruner the
// queue replaced — after every publish, walk every object's committed
// history and every version chain and cut them at the GC horizon, itself
// found by scanning every sleeper and every open snapshot — kept here, on a
// shadow of the manager's state, as the oracle: whatever the queue retains
// must be what the full scan would have retained.
//
// A second manager created WithFullHistory (it never prunes anything) runs
// the same schedule in lockstep: every call must return the same outcome on
// both, so awake validation decides exactly as if no record were ever
// dropped.

// refGC is the full-scan reference on a shadow of the GC-relevant state.
type refGC struct {
	seq       uint64
	committed map[ObjectID][]uint64 // retained history records, by commit sequence
	chains    map[ObjectID][]uint64 // retained versions oldest first (0 is the base)
	sleepers  map[TxID]uint64       // A_tsleep commit sequence per sleeper
	snaps     map[*Snapshot]uint64  // pin per open snapshot
	lastH     uint64                // horizon of the most recent publish

	// The committed value history, for snapshot reads: never pruned.
	values map[ObjectID][]refVersion
}

type refVersion struct {
	seq uint64
	val sem.Value
}

// horizon is the old horizon computation: a scan of all sleepers and all
// snapshots.
func (r *refGC) horizon() uint64 {
	h := r.seq
	for _, s := range r.sleepers {
		h = min(h, s)
	}
	for _, pin := range r.snaps {
		h = min(h, pin)
	}
	return h
}

// prune is the old per-publish full scan: every object, every chain.
func (r *refGC) prune() {
	h := r.horizon()
	r.lastH = h
	for obj, recs := range r.committed {
		keep := recs[:0]
		for _, s := range recs {
			if s > h {
				keep = append(keep, s)
			}
		}
		r.committed[obj] = keep
	}
	for obj, ch := range r.chains {
		cut := -1
		for i, s := range ch {
			if s <= h {
				cut = i
			}
		}
		if cut > 0 {
			r.chains[obj] = append([]uint64(nil), ch[cut:]...)
		}
	}
}

// publish records one commit's per-object operations, then prunes.
func (r *refGC) publish(entries []HistoryEntry) {
	r.seq++
	for _, e := range entries {
		r.committed[e.Object] = append(r.committed[e.Object], r.seq)
		if e.Op.Class.IsUpdate() {
			if len(r.chains[e.Object]) == 0 {
				r.chains[e.Object] = []uint64{0} // the base rides in with the first push
			}
			r.chains[e.Object] = append(r.chains[e.Object], r.seq)
			r.values[e.Object] = append(r.values[e.Object], refVersion{r.seq, e.New})
		}
	}
	r.prune()
}

// at is the model's snapshot read.
func (r *refGC) at(obj ObjectID, pin uint64, initial sem.Value) sem.Value {
	v := initial
	for _, ver := range r.values[obj] {
		if ver.seq <= pin {
			v = ver.val
		}
	}
	return v
}

const gcDiffInitial = int64(1000)

func gcDiffManager(t *testing.T, clk clock.Clock, objs []ObjectID, opt ...Option) *Manager {
	t.Helper()
	store := NewMemStore()
	m := NewManager(store, append([]Option{WithClock(clk), WithHistory()}, opt...)...)
	for _, id := range objs {
		ref := StoreRef{Table: "T", Key: string(id), Column: "v"}
		store.Seed(ref, sem.Int(gcDiffInitial))
		if err := m.RegisterAtomicObject(id, ref); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// retainedState reads what the manager under test actually retains.
// due counts the queue entries the last publish (whose horizon was lastH)
// left behind for later ones; lag is commitSeq minus the manager's own idea
// of the current horizon.
func retainedState(m *Manager, objs []ObjectID, lastH uint64) (committed, chains map[ObjectID][]uint64, due int, lag uint64) {
	defer m.mon.enter(m)()
	committed, chains = make(map[ObjectID][]uint64), make(map[ObjectID][]uint64)
	for _, id := range objs {
		o := m.objs.get(id)
		for _, c := range o.committed {
			committed[id] = append(committed[id], c.seq)
		}
		var desc []uint64
		for n := o.member("").ch.head.Load(); n != nil; n = n.prev.Load() {
			desc = append(desc, n.seq)
		}
		for i := len(desc) - 1; i >= 0; i-- {
			chains[id] = append(chains[id], desc[i])
		}
	}
	horizon := min(m.commitSeq, m.oldestSleepSeqLocked(), m.oldestSnapshotPinLocked())
	for i := 0; i < m.gcq.len(); i++ {
		if m.gcq.at(i).seq <= lastH {
			due++
		}
	}
	return committed, chains, due, m.commitSeq - horizon
}

func TestHorizonQueueMatchesFullScan(t *testing.T) {
	steps := 6000
	if testing.Short() {
		steps = 2500
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runGCDiff(t, seed, steps)
		})
	}
}

func runGCDiff(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewManual()
	objs := []ObjectID{"a", "b", "c", "d", "e", "f"}
	m := gcDiffManager(t, clk, objs)
	full := gcDiffManager(t, clk, objs, WithFullHistory())
	ref := &refGC{
		committed: map[ObjectID][]uint64{}, chains: map[ObjectID][]uint64{},
		sleepers: map[TxID]uint64{}, snaps: map[*Snapshot]uint64{},
		values: map[ObjectID][]refVersion{},
	}
	classes := []sem.Class{sem.AddSub, sem.AddSub, sem.AddSub, sem.Read, sem.Assign}

	var (
		live      []TxID // begun and not known terminal
		prepared  []TxID // PrepareCommit accepted, not yet terminal
		snaps     []*Snapshot
		nextTx    int
		histLen   int
		lagging   int // steps the bounded drain left work for later
		sawBacklg bool
	)
	// both runs one call on the manager under test and on the full-history
	// twin and insists on identical outcomes.
	both := func(what string, call func(*Manager) (bool, error)) (bool, error) {
		ok1, err1 := call(m)
		ok2, err2 := call(full)
		if ok1 != ok2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: pruned manager returned (%v, %v), full-history manager (%v, %v)", what, ok1, err1, ok2, err2)
		}
		return ok1, err1
	}
	// pick favours older transactions, so none sleeps or waits forever and
	// the horizon keeps moving.
	pick := func() TxID { return live[min(rng.Intn(len(live)), rng.Intn(len(live)))] }
	const maxLive, maxSnaps = 12, 3

	// Besides the short-lived snapshots of the schedule, one snapshot at a
	// time is held across many commits and then closed, so that more
	// entries come due at once than one publish may retire.
	const pinEvery, pinFor = 1500, 1000
	var longPin *Snapshot

	for step := 0; step < steps; step++ {
		seqBefore := ref.seq
		var slept, woken TxID
		switch k := rng.Intn(100); {
		case step%pinEvery == 0:
			longPin = m.BeginSnapshot()
			ref.snaps[longPin] = ref.seq
		case step%pinEvery == pinFor:
			longPin.Close()
			delete(ref.snaps, longPin)
		case len(live) >= maxLive: // settle the oldest, whatever state it is in
			id := live[0]
			both("awake", func(m *Manager) (bool, error) { return m.Awake(id) })
			both("abort", func(m *Manager) (bool, error) { return false, m.Abort(id) })
			both("decide", func(m *Manager) (bool, error) { return false, m.Decide(id, false) })
			woken = id
		case k < 22 || len(live) == 0: // begin, invoke on one or two objects
			id := TxID(fmt.Sprintf("t%d", nextTx))
			nextTx++
			both("begin", func(m *Manager) (bool, error) { return false, m.Begin(id) })
			live = append(live, id)
			for _, oi := range rng.Perm(len(objs))[:1+rng.Intn(2)] {
				obj, op := objs[oi], sem.Op{Class: classes[rng.Intn(len(classes))]}
				granted, err := both("invoke", func(m *Manager) (bool, error) { return m.Invoke(id, obj, op) })
				if err != nil || !granted {
					break // refused (deadlock) or queued: no further invocations
				}
				if op.Class.IsUpdate() {
					operand := sem.Int(int64(rng.Intn(5) - 2))
					both("apply", func(m *Manager) (bool, error) { return false, m.Apply(id, obj, operand) })
				}
			}
		case k < 45: // commit
			id := pick()
			both("commit", func(m *Manager) (bool, error) { return false, m.RequestCommit(id) })
		case k < 52: // cross-shard prepare
			id := pick()
			_, err := both("prepare", func(m *Manager) (bool, error) { return false, m.PrepareCommit(id) })
			if err == nil {
				prepared = append(prepared, id)
			}
		case k < 60: // coordinator decision
			if len(prepared) > 0 {
				id, commit := prepared[rng.Intn(len(prepared))], rng.Intn(4) > 0
				both("decide", func(m *Manager) (bool, error) { return false, m.Decide(id, commit) })
			}
		case k < 72: // sleep
			id := pick()
			if _, err := both("sleep", func(m *Manager) (bool, error) { return false, m.Sleep(id) }); err == nil {
				slept = id
			}
		case k < 84: // awake
			id := pick()
			if _, err := both("awake", func(m *Manager) (bool, error) { return m.Awake(id) }); err == nil {
				woken = id
			}
		case k < 88: // abort
			id := pick()
			both("abort", func(m *Manager) (bool, error) { return false, m.Abort(id) })
		case k < 92 && len(snaps) == maxSnaps: // close the oldest snapshot
			snaps[0].Close()
			delete(ref.snaps, snaps[0])
			snaps = snaps[1:]
		case k < 92: // open a snapshot
			s := m.BeginSnapshot()
			snaps = append(snaps, s)
			ref.snaps[s] = ref.seq
			if s.Seq() != ref.seq {
				t.Fatalf("step %d: snapshot pinned %d, model is at %d", step, s.Seq(), ref.seq)
			}
		case k < 97: // read through an open snapshot
			if len(snaps) > 0 {
				s, obj := snaps[rng.Intn(len(snaps))], objs[rng.Intn(len(objs))]
				got, err := s.Read(obj, "")
				want := ref.at(obj, s.Seq(), sem.Int(gcDiffInitial))
				if err != nil || !got.Equal(want) {
					t.Fatalf("step %d: snapshot@%d read of %s = %v, %v; model says %v", step, s.Seq(), obj, got, err, want)
				}
				if len(ref.chains[obj]) == 0 {
					ref.chains[obj] = []uint64{0} // the miss path installed the base
				}
			}
		default: // close a snapshot, or let time pass
			if len(snaps) > 0 && rng.Intn(3) > 0 {
				i := rng.Intn(len(snaps))
				snaps[i].Close()
				delete(ref.snaps, snaps[i])
				snaps = append(snaps[:i], snaps[i+1:]...)
			} else {
				clk.Advance(time.Second)
			}
		}

		// Sleeper-set changes precede the step's publishes: Sleep stamps
		// A_tsleep and Awake (or any abort) leaves X_sleeping before the
		// dispatch that lets queued commits through.
		if slept != "" {
			ref.sleepers[slept] = seqBefore
		}
		if woken != "" {
			delete(ref.sleepers, woken)
		}
		terminal := func(id TxID) bool {
			st, err := m.TxState(id)
			if err != nil {
				t.Fatal(err)
			}
			if st != StateSleeping {
				delete(ref.sleepers, id)
			}
			return st.Terminal()
		}
		live = dropIf(live, terminal)
		prepared = dropIf(prepared, terminal)

		// Feed the step's publishes to the reference, one commit at a time.
		hist := m.History()
		for i := histLen; i < len(hist); {
			j := i
			for j < len(hist) && hist[j].Tx == hist[i].Tx {
				j++
			}
			ref.publish(hist[i:j])
			i = j
		}
		histLen = len(hist)

		committed, chains, due, lag := retainedState(m, objs, ref.lastH)
		if got := m.commitSeq; got != ref.seq {
			t.Fatalf("step %d: commit sequence %d, model %d", step, got, ref.seq)
		}
		if want := ref.seq - ref.horizon(); lag != want {
			t.Fatalf("step %d: horizon lag %d, full scan says %d", step, lag, want)
		}
		extra := 0
		for _, id := range objs {
			extra += compareRetained(t, step, id, "committed history", committed[id], ref.committed[id], due == 0)
			extra += compareRetained(t, step, id, "version chain", chains[id], ref.chains[id], due == 0)
		}
		if due > 0 {
			lagging++
			sawBacklg = true
			if extra > 2*due {
				t.Fatalf("step %d: %d retained beyond the reference with only %d entries still due", step, extra, due)
			}
		}
		if step%64 == 0 {
			checkInvariants(t, m, step)
		}
	}
	if !sawBacklg {
		t.Error("schedule never left a backlog: the bounded drain went unexercised")
	}
	t.Logf("seed %d: %d commits, %d steps with a due backlog", seed, ref.seq, lagging)
}

// compareRetained checks actual ⊇ reference (as ordered sets) and, when
// exact, equality. It returns how many elements actual holds beyond the
// reference.
func compareRetained(t *testing.T, step int, obj ObjectID, what string, actual, reference []uint64, exact bool) int {
	t.Helper()
	have := make(map[uint64]bool, len(actual))
	for _, s := range actual {
		have[s] = true
	}
	for _, s := range reference {
		if !have[s] {
			t.Fatalf("step %d: %s of %s lost seq %d: retained %v, full scan retains %v", step, what, obj, s, actual, reference)
		}
	}
	if exact && len(actual) != len(reference) {
		t.Fatalf("step %d: %s of %s retains %v, full scan retains %v", step, what, obj, actual, reference)
	}
	return len(actual) - len(reference)
}

func dropIf(ids []TxID, drop func(TxID) bool) []TxID {
	keep := ids[:0]
	for _, id := range ids {
		if !drop(id) {
			keep = append(keep, id)
		}
	}
	return keep
}
