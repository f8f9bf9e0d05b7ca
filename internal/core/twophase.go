package core

import (
	"errors"
	"fmt"

	"preserial/internal/ldbs"
	"preserial/internal/sem"
)

// This file is the participant half of the cross-shard commit protocol
// (internal/shard): PrepareCommit runs the whole local commit pipeline —
// committer slots in canonical order, per-object reconciliation — but stops
// at the SST barrier with the write set staged, Decide either launches the
// staged SST (plus any coordinator-supplied writes, e.g. the atomic
// decision marker) or aborts, and ReplayDecided re-applies a logged
// decision after a crash erased the prepared state.

// PrepareCommit starts the commit protocol but halts at the prepared
// barrier: committer slots are acquired and each object's X_new is
// reconciled exactly as in RequestCommit, but instead of launching the
// Secure System Transaction the write set is staged on the transaction and
// EvPrepared is emitted. The transaction is then in doubt — it holds its
// committer slots, conflicts with incompatible invocations, and can no
// longer be aborted by its client; only Decide settles it. Like
// RequestCommit the method returns immediately; when slots are contended
// EvPrepared (or the EvAborted that replaced it) arrives asynchronously.
func (m *Manager) PrepareCommit(txID TxID) error {
	defer m.mon.enter(m)()
	return m.requestCommitLocked(txID, true)
}

// SSTValidator is the optional Store surface the prepare barrier uses:
// check a write set against the substrate's constraints without applying
// it. LDBS checks are pure value predicates, so a write set that validates
// at prepare cannot fail a constraint at decide — the committer slots held
// since prepare keep every reconciled value stable. Both LDBSStore and
// MemStore implement it.
type SSTValidator interface {
	ValidateSST(writes []SSTWrite) error
}

// stagePreparedLocked is the prepare-path terminus of advanceCommitLocked:
// every committer slot is held, so record the would-be SST and publish
// payload on the transaction and notify the coordinator. Constraint
// violations surface here, as a prepare-time abort, never after the
// coordinator has logged its decision.
func (m *Manager) stagePreparedLocked(t *transaction) {
	locals, writes := m.collectCommitLocked(t)
	if v, ok := m.store.(SSTValidator); ok {
		if err := v.ValidateSST(writes); err != nil {
			t.preparing = false
			m.setStateLocked(t, StateAborting)
			m.finishAbortLocked(t, AbortSSTFailure, err)
			return
		}
	}
	t.prepared = true
	t.stagedLocals = locals
	t.stagedWrites = writes
	if m.obs != nil {
		m.obs.prepares.Inc()
		m.traceLocked("prepare", t, "", 0, 0, "")
	}
	m.notifyTxLocked(t, Event{Type: EvPrepared, Tx: t.id})
}

// StagedWrites returns a copy of the SST write set staged by a prepared
// transaction — what the coordinator logs before deciding.
func (m *Manager) StagedWrites(txID TxID) ([]SSTWrite, error) {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if !t.inDoubt() {
		return nil, fmt.Errorf("%w: %s is not prepared", ErrBadState, txID)
	}
	out := make([]SSTWrite, len(t.stagedWrites))
	copy(out, t.stagedWrites)
	return out, nil
}

// Decide settles a prepared transaction with the coordinator's verdict.
// commit=true launches the staged Secure System Transaction, extended with
// extra (the coordinator's atomic decision marker rides here, making the
// decision and the data durable in one LDBS transaction); the outcome
// arrives as EvCommitted or — should the SST still fail — EvAborted.
// commit=false aborts with AbortCoordinator, releasing every slot.
func (m *Manager) Decide(txID TxID, commit bool, extra ...SSTWrite) error {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if !t.inDoubt() {
		return fmt.Errorf("%w: %s is not prepared", ErrBadState, txID)
	}
	locals, writes := t.stagedLocals, t.stagedWrites
	t.preparing = false
	t.prepared = false
	t.stagedLocals = nil
	t.stagedWrites = nil
	if !commit {
		m.setStateLocked(t, StateAborting)
		m.finishAbortLocked(t, AbortCoordinator, nil)
		return nil
	}
	if len(extra) > 0 {
		writes = append(writes, extra...)
		SortSSTWrites(writes)
	}
	if m.store == nil || len(writes) == 0 {
		m.publishLocked(t, locals)
		return nil
	}
	m.launchSSTLocked(t, locals, writes)
	return nil
}

// ReplayDecided re-applies the write set of a transaction whose commit a
// coordinator decided (and logged) but whose SST this node may never have
// executed — the in-doubt recovery path after a shard crash erased the
// prepared state. The marker write makes replay exactly-once: it is part
// of every decided SST, so if the store already holds it the original SST
// (or an earlier replay) landed and the call is a no-op. Returns whether
// the write set was applied now.
//
// The caller must serialize replays with live traffic on the same refs (in
// practice: resolve in-doubt transactions on a freshly restarted shard
// before routing new work to it) — the write set carries absolute
// reconciled values, and replaying underneath a later commit would clobber
// it.
func (m *Manager) ReplayDecided(txID TxID, marker SSTWrite, writes []SSTWrite) (applied bool, err error) {
	if err := m.replayable(txID); err != nil {
		return false, err
	}
	if m.store == nil {
		return false, fmt.Errorf("core: replay of %s: manager has no store", txID)
	}
	v, err := m.store.Load(marker.Ref)
	switch {
	case err == nil && !v.IsNull():
		return false, nil // marker present: the decided SST already landed
	case err != nil && !errors.Is(err, ldbs.ErrNoRow):
		return false, fmt.Errorf("core: replay of %s: probing marker: %w", txID, err)
	}
	all := make([]SSTWrite, 0, len(writes)+1)
	all = append(all, writes...)
	all = append(all, marker)
	SortSSTWrites(all)
	// A replay writes the store behind the GTM's back; holding sstActive
	// across it keeps the snapshot read path's miss protocol from
	// certifying a load taken mid-replay as committed-stable.
	m.mvcc.sstActive.Add(1)
	err = m.store.ApplySST(all)
	m.mvcc.sstActive.Add(-1)
	if err != nil {
		return false, fmt.Errorf("core: replay of %s: %w", txID, err)
	}
	m.invalidateMirrors(writes)
	return true, nil
}

// replayable refuses to replay over a transaction the manager still knows:
// a live prepared transaction must be settled through Decide, never
// bypassed at the store level.
func (m *Manager) replayable(txID TxID) error {
	defer m.mon.enter(m)()
	if t, ok := m.txs[txID]; ok && !t.state.Terminal() {
		return fmt.Errorf("%w: %s is %s here, settle it with Decide", ErrBadState, txID, t.state)
	}
	return nil
}

// invalidateMirrors drops the X_permanent mirrors and version chains
// covering refs written behind the GTM's back (ReplayDecided), so the next
// load — monitor or snapshot path — re-reads the store.
func (m *Manager) invalidateMirrors(writes []SSTWrite) {
	defer m.mon.enter(m)()
	refs := make(map[StoreRef]bool, len(writes))
	for _, w := range writes {
		refs[w.Ref] = true
	}
	for _, o := range m.objs.all {
		for mb := o.members.Load(); mb != nil; mb = mb.next {
			if mb.backed && refs[mb.ref] {
				mb.perm, mb.known = sem.Value{}, false
				mb.ch.head.Store(nil)
			}
		}
	}
}
