package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/obs"
	"preserial/internal/sem"
)

// embeddedBurst: no network. core.Manager → ldbs.Persistence on the disk
// store with a page cache of 10 % of the measured working set, 65 536
// objects, checkpoint every 5 s. Each client loops: begin 32 transactions
// with core.WithNotify, invoke + apply add/sub −1 on 32 distinct partition
// objects, RequestCommit all 32 back-to-back, wait for the 32 outcomes.
//
// Why: the library's embedded use (examples/), and the only workload whose
// commit depth exceeds the client count, so the SST executor, the WAL
// group-commit batch, the LDBS lock pass, store apply under cache misses and
// checkpoint stalls do the work with zero wire, gateway, shard or repl time.
// It is the working-set ≫ cache workload; cluster_booking is the one that
// fits.
type embeddedBurst struct {
	e      *env
	reg    *obs.Registry
	pers   *ldbs.Persistence
	db     *ldbs.DB
	m      *core.Manager
	bg     *background
	redo   redoCounter
	model  []int64
	recs   []*recorder
	driver string
	redoN  int64

	workingSet int64 // bytes of the page file after seeding
	cacheBytes int64
}

const burstObjects = 65536

func (w *embeddedBurst) objects() int {
	if w.e.quick {
		return 4096
	}
	return burstObjects
}

func (w *embeddedBurst) setup(e *env) error {
	w.e = e
	w.reg = obs.NewRegistry()
	w.redo.reg = w.reg
	w.driver = "disk"
	if e.tr != nil {
		w.driver = tracedDiskDriver
	}
	all := iota0(w.objects())

	// Seed with the default cache, checkpoint, and measure the page file:
	// that is the working set the run's cache is a tenth of.
	seedPers := &ldbs.Persistence{Dir: e.dir, Store: "disk"}
	db, err := seedPers.Open(seatsSchemas())
	if err != nil {
		return err
	}
	if err := seedSeats(db, all); err != nil {
		seedPers.Close()
		return err
	}
	if err := seedPers.Checkpoint(db); err != nil {
		seedPers.Close()
		return err
	}
	st := db.StoreStats()
	w.workingSet = st.FilePages * int64(st.PageSize)
	if err := seedPers.Close(); err != nil {
		return err
	}
	w.cacheBytes = w.workingSet / 10

	w.pers = &ldbs.Persistence{Dir: e.dir, Store: w.driver, PageCacheBytes: w.cacheBytes, Obs: w.reg}
	if w.db, err = w.pers.Open(seatsSchemas()); err != nil {
		return err
	}
	var cs core.Store = core.NewLDBSStore(w.db)
	if e.tr != nil {
		if cs, err = traceStore(cs, e.tr); err != nil {
			return err
		}
	}
	w.m = core.NewManager(cs, managerOpts(core.NewObservability(w.reg, traceDepth))...)
	if err := registerSeats(w.m, all); err != nil {
		return err
	}
	w.bg = newBackground()
	w.bg.every(checkpointEvery, func() {
		if err := w.pers.Checkpoint(w.db); err == nil {
			w.redo.checkpointed()
		}
	})
	w.model = newModel(len(all))
	w.recs = make([]*recorder, e.clients)
	return nil
}

// outcome is one transaction's terminal event, stamped when it was delivered.
type outcome struct {
	slot      int
	at        int64
	committed bool
	err       error
}

func (w *embeddedBurst) client(i int, r *recorder, stop *atomic.Bool) {
	w.recs[i] = r
	gen := newBurstGen(w.e.seed, i, partition(len(w.model), w.e.clients, i))
	// Sized to the number of sends per burst, so a notification never blocks
	// the goroutine that delivers it.
	outcomes := make(chan outcome, burstSize)
	var (
		txs    [burstSize]core.TxID
		objs   [burstSize]int
		asked  [burstSize]int64
		ready  [burstSize]bool
		addSub = sem.Op{Class: sem.AddSub}
	)
	for n := 0; !stop.Load(); n++ {
		for k := 0; k < burstSize; k++ {
			slot := k
			objs[k] = gen.next().objs[0]
			txs[k] = core.TxID(fmt.Sprintf("e%d-%d-%d", i, n, k))
			tx, id := string(txs[k]), core.ObjectID(seatObject(objs[k]))
			notify := func(ev core.Event) {
				switch ev.Type {
				case core.EvCommitted:
					outcomes <- outcome{slot: slot, at: r.now(), committed: true}
				case core.EvAborted:
					outcomes <- outcome{slot: slot, at: r.now(), err: fmt.Errorf("aborted (%s): %v", ev.Reason, ev.Err)}
				case core.EvGranted, core.EvPrepared:
				}
			}
			ready[k] = false
			if err := r.call(kOp, spClientBegin, tx, func() error { return w.m.Begin(txs[slot], core.WithNotify(notify)) }); err != nil {
				r.fail(err)
				continue
			}
			err := r.call(kOp, spClientInvoke, tx, func() error {
				granted, err := w.m.Invoke(txs[slot], id, addSub)
				if err == nil && !granted {
					err = fmt.Errorf("invoke of %s on %s queued; bursts never conflict", tx, id)
				}
				return err
			})
			if err == nil {
				err = r.call(kOp, spClientApply, tx, func() error { return w.m.Apply(txs[slot], id, sem.Int(-1)) })
			}
			if err != nil {
				r.fail(err)
				continue
			}
			ready[k] = true
		}
		// Request every commit back-to-back, then collect the outcomes: the
		// commit depth is the whole burst.
		waiting := 0
		for k := 0; k < burstSize; k++ {
			if !ready[k] {
				continue
			}
			asked[k] = r.now()
			if err := w.m.RequestCommit(txs[k]); err != nil {
				r.attempted++
				r.fail(err)
				continue
			}
			waiting++
		}
		for ; waiting > 0; waiting-- {
			o := <-outcomes
			r.record(kCommit, spClientCommit, string(txs[o.slot]), asked[o.slot], o.at)
			if !o.committed {
				r.fail(o.err)
			} else {
				r.committed++
				w.model[objs[o.slot]]--
			}
			r.taskAt(o.at)
		}
	}
}

func (w *embeddedBurst) counters() counters { return readCounters(w.reg) }

func (w *embeddedBurst) verify() (verifyReport, error) {
	checked, bad, first, err := checkModel(w.model, func(obj int) (int64, error) { return readSeat(w.db, obj) })
	rep := verifyReport{Checked: checked, Mismatches: bad, First: first, CommitPct: commitShare(w.recs...),
		Extra: map[string]float64{}}
	if err != nil {
		return rep, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("table of %d rows: page file %d bytes after seeding, page cache %d bytes (10 %%)",
		len(w.model), w.workingSet, w.cacheBytes))
	// Space cost: page-file bytes per byte of live row data (key + column
	// name + an 8-byte value per row).
	if fi, serr := os.Stat(filepath.Join(w.e.dir, "STORE")); serr == nil {
		user := float64(len(w.model) * (len(seatKey(0)) + len(seatsColumn) + 8))
		rep.Extra["ldbs.store.file_bytes_per_user_byte"] = float64(fi.Size()) / user
	}
	return rep, nil
}

func (w *embeddedBurst) close() error {
	if w.reg != nil {
		w.redoN = w.redo.pending()
	}
	if w.bg != nil {
		w.bg.stop()
		w.bg = nil
	}
	if w.m != nil {
		w.m.Close()
		w.m = nil
	}
	var err error
	if w.pers != nil {
		err = w.pers.Close()
		w.pers = nil
	}
	return err
}

// recover reopens the page file and redoes the WAL tail, as a restarted
// process would, and checks every row again.
func (w *embeddedBurst) recover() (recoverReport, error) {
	return reopenAndCheck(w.e.dir, "disk", w.redoN, w.model)
}
