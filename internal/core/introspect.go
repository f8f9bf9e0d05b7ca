package core

import (
	"fmt"
	"sort"
	"time"

	"preserial/internal/sem"
)

// ObjectInfo is an externally visible snapshot of one object's Section IV
// state — the operator's view of X_pending, X_waiting, X_committing,
// X_sleeping and the permanent mirror.
type ObjectInfo struct {
	ID        ObjectID
	Members   map[string]sem.Value // X_permanent per loaded member
	Pending   []TxOp               // X_pending (holder, op)
	Waiting   []TxOp               // X_waiting in queue order
	Commiting []TxOp               // X_committing
	Sleeping  []TxID               // X_sleeping
	CommitQ   []TxID               // transactions queued for the committer slot
	Committed int                  // retained X_committed history length
}

// TxOp pairs a transaction with its operation on an object.
type TxOp struct {
	Tx TxID
	Op sem.Op
}

// ObjectInfo returns a snapshot of one object's scheduling state.
func (m *Manager) ObjectInfo(id ObjectID) (ObjectInfo, error) {
	defer m.mon.enter(m)()
	o := m.objs.get(id)
	if o == nil {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrUnknownObject, id)
	}
	info := ObjectInfo{
		ID:        id,
		Members:   make(map[string]sem.Value),
		Pending:   []TxOp{},
		Commiting: []TxOp{},
		Committed: len(o.committed),
	}
	for mb := o.members.Load(); mb != nil; mb = mb.next {
		if mb.known {
			info.Members[mb.name] = mb.perm
		}
	}
	for i := range o.holders {
		h := &o.holders[i]
		switch {
		case h.flags&holdPending != 0:
			info.Pending = append(info.Pending, TxOp{Tx: h.tx, Op: h.op})
		case h.flags&holdCommitting != 0:
			info.Commiting = append(info.Commiting, TxOp{Tx: h.tx, Op: h.op})
		}
		if h.flags&holdSleeping != 0 {
			info.Sleeping = append(info.Sleeping, h.tx)
		}
	}
	for _, w := range o.waiting {
		info.Waiting = append(info.Waiting, TxOp{Tx: w.tx, Op: w.op})
		if w.sleeping {
			info.Sleeping = append(info.Sleeping, w.tx)
		}
	}
	sort.Slice(info.Pending, func(i, j int) bool { return info.Pending[i].Tx < info.Pending[j].Tx })
	sort.Slice(info.Sleeping, func(i, j int) bool { return info.Sleeping[i] < info.Sleeping[j] })
	info.CommitQ = append(info.CommitQ, o.commitQ...)
	return info, nil
}

// Transactions returns a snapshot of every registered transaction, sorted
// by id (operator/diagnostic surface; terminal transactions remain until
// Forget or until terminalRetention newer ones have finished).
func (m *Manager) Transactions() []TxInfo {
	defer m.mon.enter(m)()
	out := make([]TxInfo, 0, len(m.txs))
	for _, t := range m.txs {
		out = append(out, t.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WaitGraph returns the current wait-for edges (waiter → blockers), for
// diagnostics and deadlock post-mortems.
func (m *Manager) WaitGraph() map[TxID][]TxID {
	defer m.mon.enter(m)()
	edges := m.waitEdgesLocked()
	out := make(map[TxID][]TxID, len(edges))
	for from, tos := range edges {
		cp := append([]TxID(nil), tos...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		out[from] = cp
	}
	return out
}

// Age reports how long a transaction has been in its current condition:
// waiting time for Waiting, sleep time for Sleeping, lifetime otherwise.
func (m *Manager) Age(txID TxID) (time.Duration, error) {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	now := m.clk.Now()
	switch t.state {
	case StateWaiting:
		return now.Sub(t.twait), nil
	case StateSleeping:
		return now.Sub(t.tsleep), nil
	case StateCommitted, StateAborted:
		return t.finished.Sub(t.began), nil
	case StateActive, StateCommitting, StateAborting:
		return now.Sub(t.began), nil
	default:
		return now.Sub(t.began), nil // corrupt state: fall back to lifetime
	}
}
