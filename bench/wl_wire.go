package main

import (
	"fmt"
	"sync/atomic"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// wireReadMostly: legacy wire.Server → one core.Manager → volatile ldbs (no
// WAL, mem store); clients are wire.Conn. 90 % one-shot snapshot reads, 10 %
// single-object bookings.
//
// Why: with no fsync, replication, shards or gateway, JSON framing, engine
// dispatch and dedup, the monitor critical section and LDBS 2PL are the whole
// cost. It drives core through the monitor-free read path beside the monitor
// write path, so a gain for one that costs the other shows as
// client.read_p50_ms against commit_p50_ms. Durable-path changes must leave
// it unmoved.
type wireReadMostly struct {
	e     *env
	reg   *obs.Registry
	db    *ldbs.DB
	m     *core.Manager
	srv   *wire.Server
	done  <-chan error
	bg    *background
	conns []*wire.Conn
	model []int64
	recs  []*recorder
}

const wireObjects = 1024

func (w *wireReadMostly) objects() int {
	if w.e.quick {
		return 128
	}
	return wireObjects
}

func (w *wireReadMostly) setup(e *env) error {
	w.e = e
	w.reg = obs.NewRegistry()
	w.db = ldbs.Open(ldbs.Options{Obs: w.reg})
	for _, s := range seatsSchemas() {
		if err := w.db.CreateTable(s); err != nil {
			return err
		}
	}
	all := iota0(w.objects())
	if err := seedSeats(w.db, all); err != nil {
		return err
	}
	var st core.Store = core.NewLDBSStore(w.db)
	if e.tr != nil {
		var err error
		if st, err = traceStore(st, e.tr); err != nil {
			return err
		}
	}
	w.m = core.NewManager(st, managerOpts(core.NewObservability(w.reg, traceDepth))...)
	if err := registerSeats(w.m, all); err != nil {
		return err
	}
	backend := wire.NewManagerBackend(w.m)
	if e.tr != nil {
		var err error
		if backend, err = traceBackend(backend, e.tr); err != nil {
			return err
		}
	}
	w.bg = newBackground()
	w.bg.supervise(w.m)
	w.srv = wire.NewBackendServer(backend, wireOpts(w.reg))
	addr, done, err := serve(w.srv, func() string { return w.srv.Addr().String() })
	if err != nil {
		return err
	}
	w.done = done
	for i := 0; i < e.clients; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, c)
	}
	w.model = newModel(len(all))
	w.recs = make([]*recorder, e.clients)
	return nil
}

func (w *wireReadMostly) client(i int, r *recorder, stop *atomic.Bool) {
	w.recs[i] = r
	cn := w.conns[i]
	gen := newReadMostlyGen(w.e.seed, i, partition(len(w.model), w.e.clients, i))
	for n := 0; !stop.Load(); n++ {
		t := gen.next()
		obj := t.objs[0]
		name := seatObject(obj)
		if t.kind == tkRead {
			var got sem.Value
			err := r.call(kRead, spClientRead, "", func() (err error) {
				got, err = cn.SnapshotRead(name, "")
				return err
			})
			switch {
			case err != nil:
				r.fail(err)
			case got.Int64() != w.model[obj]:
				// A client's own partition changes only by its own commits,
				// so the snapshot must equal the model at this instant.
				r.fail(fmt.Errorf("snapshot read of %s = %d, model says %d", name, got.Int64(), w.model[obj]))
			}
			r.task()
			continue
		}
		tx := fmt.Sprintf("w%d-%d", i, n)
		if bookOne(r, cn, tx, name) {
			w.model[obj]--
		}
		r.task()
	}
}

func (w *wireReadMostly) counters() counters { return readCounters(w.reg) }

func (w *wireReadMostly) verify() (verifyReport, error) {
	checked, bad, first, err := checkModel(w.model, func(obj int) (int64, error) { return readSeat(w.db, obj) })
	return verifyReport{Checked: checked, Mismatches: bad, First: first, CommitPct: commitShare(w.recs...)}, err
}

func (w *wireReadMostly) close() error {
	for _, c := range w.conns {
		c.Close()
	}
	w.conns = nil
	var err error
	if w.srv != nil {
		err = w.srv.Close()
		if w.done != nil {
			<-w.done
		}
		w.srv = nil
	}
	if w.bg != nil {
		w.bg.stop()
		w.bg = nil
	}
	if w.m != nil {
		w.m.Close()
		w.m = nil
	}
	return err
}

// recover: the topology is volatile, there is nothing to reopen.
func (w *wireReadMostly) recover() (recoverReport, error) { return recoverReport{}, nil }

// bookingCalls is the transaction surface the booking helper needs; both
// client connection types provide it.
type bookingCalls interface {
	Begin(tx string) error
	Invoke(tx, object string, class sem.Class, member string) error
	Apply(tx, object string, operand sem.Value) error
	Commit(tx string) error
}

// bookOne runs one booking — begin, then invoke add/sub and apply −1 on each
// object, then commit — timing every call. It reports whether the booking
// committed; any failure is counted (no booking of the benchmark can abort
// for a semantic reason: add/sub is compatible with add/sub).
func bookOne(r *recorder, c bookingCalls, tx string, objects ...string) bool {
	step := func(kind sampleKind, name string, fn func() error) bool {
		if err := r.call(kind, name, tx, fn); err != nil {
			r.fail(fmt.Errorf("%s of %s: %w", name, tx, err))
			return false
		}
		return true
	}
	if !step(kOp, spClientBegin, func() error { return c.Begin(tx) }) {
		return false
	}
	for _, obj := range objects {
		obj := obj
		if !step(kOp, spClientInvoke, func() error { return c.Invoke(tx, obj, sem.AddSub, "") }) {
			return false
		}
		if !step(kOp, spClientApply, func() error { return c.Apply(tx, obj, sem.Int(-1)) }) {
			return false
		}
	}
	if !step(kCommit, spClientCommit, func() error { return c.Commit(tx) }) {
		return false
	}
	r.committed++
	return true
}
