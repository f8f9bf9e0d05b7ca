package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"preserial/internal/sem"
)

// Multiversion read path. Every committed update appends an immutable
// version node to a per-member chain, stamped with the manager-wide commit
// sequence. A snapshot pins a sequence number and reads the newest version
// at or below its pin by walking the chain — no monitor entry, no pending
// slot, no interference with writers or with the commit pipeline. This is
// the read-side complement of pre-serialization: long-running read-mostly
// transactions stop occupying object slots (and stop serializing behind
// other transactions' SSTs) entirely.
//
// Version GC shares the horizon queue of the committed-history pruning
// (pruneHistoriesLocked): every publish queues the chains it pushed onto,
// and a chain is truncated when its entry falls to or below the GC horizon
// — versions older than the newest one visible to the oldest live snapshot
// (or sleeping transaction, via A_tsleep's commit sequence) are unlinked.
// No publish ever walks the chains it did not touch.

// versionNode is one committed value of an object member. Nodes are
// immutable after publication; prev links to the next-older version and is
// atomically truncated by GC.
type versionNode struct {
	val  sem.Value
	seq  uint64 // commit sequence that installed this version (0: base)
	prev atomic.Pointer[versionNode]
}

// chain is a member's committed-version list, newest first. The head is
// CAS-installed by the first reader or publisher to touch the member.
type chain struct {
	head atomic.Pointer[versionNode]
}

// at returns the newest version at or below pin, nil when every retained
// version is newer (the caller falls back to the monitor path).
func (c *chain) at(pin uint64) *versionNode {
	n := c.head.Load()
	for n != nil && n.seq > pin {
		n = n.prev.Load()
	}
	return n
}

// truncate unlinks every version older than the newest one at or below
// horizon, returning the number of nodes dropped. Readers pinned at or
// above horizon never walk past the cut point, so truncation is safe
// against concurrent chain walks.
func (c *chain) truncate(horizon uint64) uint64 {
	cut := c.at(horizon)
	if cut == nil {
		return 0
	}
	var dropped uint64
	for n := cut.prev.Load(); n != nil; n = n.prev.Load() {
		dropped++
	}
	if dropped > 0 {
		cut.prev.Store(nil)
	}
	return dropped
}

// mvccState is the Manager's lock-free snapshot machinery (the read path
// resolves objects through Manager.objs and members through the object's
// member list, both safe to walk without the monitor). seq is the atomic
// shadow of Manager.commitSeq, stored only after every chain push of a
// publish has landed; sstActive counts Secure System Transactions between
// store write and publication — the window in which a store load is not
// committed-stable.
type mvccState struct {
	seq       atomic.Uint64
	sstActive atomic.Int64

	// Open snapshots in arrival order. Pins are taken from seq under
	// snapMu, so they are monotone along the queue and the oldest open
	// snapshot is the front one; Close only marks, and closed snapshots are
	// dropped when they reach the front (or, should a long-lived snapshot
	// hold the front, by a sweep once they outnumber the open ones).
	snapMu sync.Mutex
	snapQ  fifo[*Snapshot]
	open   int
}

// trimSnapshots drops closed snapshots from the front of the queue, and
// sweeps the whole queue when closed entries dominate it. Caller holds
// snapMu (not the monitor — in this package the Locked suffix is reserved
// for monitor-held code).
func (mv *mvccState) trimSnapshots() {
	for mv.snapQ.len() > 0 && mv.snapQ.front().closed.Load() {
		mv.snapQ.pop()
	}
	if mv.snapQ.len() > 2*mv.open+lazySweepSlack {
		mv.snapQ.filter(func(s *Snapshot) bool { return !s.closed.Load() })
	}
}

// lazySweepSlack is how many stale entries a lazily-trimmed arrival list
// (open snapshots, sleepers) tolerates beyond twice its live population
// before it is swept, which keeps the sweeps amortised O(1) per arrival.
const lazySweepSlack = 64

// oldestSnapshotPinLocked returns the pin of the oldest open snapshot —
// the front of the arrival queue — or noPin when none is open.
func (m *Manager) oldestSnapshotPinLocked() uint64 {
	//gtmlint:lockorder core.monitor.mu -> core.mvccState.snapMu
	//lint:ignore gtmlint/monitorsafe snapMu is a leaf lock: its holders never enter the monitor or block, so taking it under the monitor cannot deadlock
	m.mvcc.snapMu.Lock()
	defer m.mvcc.snapMu.Unlock()
	m.mvcc.trimSnapshots()
	if m.mvcc.snapQ.len() == 0 {
		return noPin
	}
	return m.mvcc.snapQ.front().pin
}

// noPin is the horizon contribution of an empty pin list.
const noPin = ^uint64(0)

// pushVersionLocked appends a committed version during publish. Caller
// holds the monitor; the commit's sequence number is already assigned but
// m.mvcc.seq has not advanced yet, so readers cannot pin this commit until
// every member's push is visible. On a chain's first push the prior
// permanent value is installed as the base (sequence 0), preserving it for
// snapshots pinned before this commit.
func (m *Manager) pushVersionLocked(mb *member, val sem.Value, seq uint64) {
	ch := &mb.ch
	if ch.head.Load() == nil {
		// A concurrent miss-path reader may install the base first; both
		// write the same committed value, so losing the race is fine.
		ch.head.CompareAndSwap(nil, &versionNode{val: mb.perm})
	}
	n := &versionNode{val: val, seq: seq}
	n.prev.Store(ch.head.Load())
	ch.head.Store(n)
	if m.obs != nil {
		m.obs.mvccInstalled.Inc()
	}
}

// gcVersionsLocked truncates one member's chain to the GC horizon — the
// version-GC half of a horizon-queue entry coming due.
func (m *Manager) gcVersionsLocked(mb *member, horizon uint64) {
	if dropped := mb.ch.truncate(horizon); dropped > 0 && m.obs != nil {
		m.obs.mvccGCed.Add(dropped)
	}
}

// Snapshot is a pinned, monitor-free read view: every Read observes the
// committed state as of the pinned commit sequence, consistently across
// objects. A Snapshot holds no object slots and blocks no writer; it only
// pins version GC, so Close it when done.
type Snapshot struct {
	m      *Manager
	pin    uint64
	closed atomic.Bool
}

// BeginSnapshot opens a read-only snapshot at the current commit sequence.
// The registration and the pin are taken under snapMu so GC (which reads the
// oldest pin under snapMu) can never prune versions out from under a
// just-opened snapshot.
func (m *Manager) BeginSnapshot() *Snapshot {
	s := &Snapshot{m: m}
	m.mvcc.snapMu.Lock()
	s.pin = m.mvcc.seq.Load()
	m.mvcc.trimSnapshots()
	m.mvcc.snapQ.push(s)
	m.mvcc.open++
	m.mvcc.snapMu.Unlock()
	if m.obs != nil {
		m.obs.mvccOpened.Inc()
	}
	return s
}

// Seq returns the pinned commit sequence.
func (s *Snapshot) Seq() uint64 { return s.pin }

// Closed reports whether the snapshot has been closed.
func (s *Snapshot) Closed() bool { return s.closed.Load() }

// Close releases the snapshot's GC pin. Idempotent.
func (s *Snapshot) Close() {
	if s.closed.Swap(true) {
		return
	}
	m := s.m
	m.mvcc.snapMu.Lock()
	m.mvcc.open--
	m.mvcc.trimSnapshots()
	m.mvcc.snapMu.Unlock()
	if m.obs != nil {
		m.obs.mvccClosed.Inc()
	}
}

// snapshotSpins bounds the lock-free miss-path retry loop before the read
// falls back to the monitor.
const snapshotSpins = 128

// Read returns the member's committed value as of the snapshot's pin. The
// fast path walks the version chain without any lock; a member no commit
// has touched is loaded from the store under a stability check (no SST in
// flight, commit sequence unchanged across the load) and its base version
// is CAS-installed so subsequent reads hit the chain.
func (s *Snapshot) Read(objID ObjectID, member string) (sem.Value, error) {
	if s.closed.Load() {
		return sem.Value{}, fmt.Errorf("%w: snapshot is closed", ErrBadState)
	}
	m := s.m
	o := m.objs.get(objID)
	if o == nil {
		return sem.Value{}, fmt.Errorf("%w: %s", ErrUnknownObject, objID)
	}
	if m.obs != nil {
		m.obs.mvccReads.Inc()
	}
	mb := o.member(member)
	if mb == nil {
		// Never registered and never touched: only the monitor may link a
		// new member.
		return s.fallbackSlow(objID, member)
	}
	ch := &mb.ch
	for spin := 0; spin < snapshotSpins; spin++ {
		if ch.head.Load() != nil {
			n := ch.at(s.pin)
			if n == nil {
				// Every retained version postdates the pin: the chain was
				// created after this snapshot opened and GC cannot have
				// pruned past a live pin, so only the monitor knows the
				// older value.
				break
			}
			return n.val, nil
		}
		// Miss: no commit has versioned this member yet. A store load is the
		// committed value iff no SST was in flight and no commit published
		// while we loaded — otherwise retry (the window is the duration of
		// one SST).
		a1 := m.mvcc.sstActive.Load()
		s1 := m.mvcc.seq.Load()
		v := sem.Null()
		if mb.backed && m.store != nil {
			loaded, err := m.store.Load(mb.ref)
			if err != nil {
				return sem.Value{}, fmt.Errorf("core: snapshot read of %s of %s: %w", member, objID, err)
			}
			v = loaded
		}
		if a1 == 0 && m.mvcc.sstActive.Load() == 0 && m.mvcc.seq.Load() == s1 {
			if ch.head.CompareAndSwap(nil, &versionNode{val: v}) {
				return v, nil
			}
			continue // lost the install race: re-walk the fresh chain
		}
		runtime.Gosched()
	}
	return s.fallbackSlow(objID, member)
}

// fallbackSlow is the metered exit from the lock-free protocol.
func (s *Snapshot) fallbackSlow(objID ObjectID, member string) (sem.Value, error) {
	if s.m.obs != nil {
		s.m.obs.mvccFallbacks.Inc()
	}
	return s.m.snapshotReadSlow(objID, member, s.pin)
}

// snapshotReadSlow resolves a snapshot read under the monitor — the rare
// path when the lock-free protocol cannot certify stability (a store
// sustained SST traffic across every retry) or the chain postdates the pin.
// Under the monitor no publish is concurrent: if the chain still has no
// version at or below the pin, the member was never updated by a commit
// the snapshot can see, and the X_permanent mirror (untouched until
// publish) is exactly the pinned value.
func (m *Manager) snapshotReadSlow(objID ObjectID, member string, pin uint64) (sem.Value, error) {
	defer m.mon.enter(m)()
	o := m.objs.get(objID)
	if o == nil {
		return sem.Value{}, fmt.Errorf("%w: %s", ErrUnknownObject, objID)
	}
	mb := o.ensureMember(member)
	if n := mb.ch.at(pin); n != nil {
		return n.val, nil
	}
	return m.loadPermanentLocked(o, mb)
}

// SnapshotRead is the one-shot form: pin, read one member, release.
func (m *Manager) SnapshotRead(objID ObjectID, member string) (sem.Value, error) {
	s := m.BeginSnapshot()
	defer s.Close()
	return s.Read(objID, member)
}

// MonitorEntries returns the number of monitor critical sections entered
// since the manager was created — the oracle the read-mostly benchmark and
// the chaos tests use to prove snapshot reads are monitor-free.
func (m *Manager) MonitorEntries() uint64 { return m.mon.entries.Load() }
