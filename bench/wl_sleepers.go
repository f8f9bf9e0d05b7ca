package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/ldbs"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// mobileSleepers: gateway.Server → one core.Manager → ldbs.Persistence on the
// mem store (real WAL fsync, checkpoint every 5 s), gtmd's supervisor on;
// set-up parks 20 000 idle sessions. Each client keeps a window of 64
// long-running transactions, one session each, over 256 partition objects:
//
//	phase A: attach session, begin, invoke (α = 0.7 add/sub −1, 0.3 assign of
//	         a fresh value), apply, detach — the transaction sleeps;
//	phase B, 64 transactions later: resume the session, awake, commit if
//	         resumed (else count an awake-abort), detach.
//
// Every transaction disconnects once, so incompatible invokes are admitted
// past sleeping holders and never block the driving goroutine; assign-vs-
// add/sub overlap makes Algorithm 9 abort sleepers on awake. Each client's
// script is a seeded cycle replayed in a loop, and the abort share is taken
// over whole cycles, so it repeats exactly for a seed.
//
// Why: the paper's scenario. The work is in core (admission past sleepers,
// the sleepers index, awake validation, history pruning, Eq. 1 reconciliation
// against a permanent value that moved during the sleep, supervisor scans)
// and in gateway (park/resume, session table), with many open transactions
// per object — core used differently from the bookings.
type mobileSleepers struct {
	e     *env
	reg   *obs.Registry
	pers  *ldbs.Persistence
	db    *ldbs.DB
	m     *core.Manager
	gw    *gateway.Server
	done  <-chan error
	bg    *background
	redo  redoCounter
	conns []*gateway.MuxConn
	model []int64
	recs  []*recorder

	// cycles[i] is client i's record of awake-aborted script positions, one
	// entry per completed cycle.
	cycles [][][]int
	redoN  int64
}

const (
	sleeperWindow = 64
	// sleeperCycle is the script length per client. A run must complete the
	// first cycle and one more for the abort share to be exact; the sandbox
	// finishes about one cycle per second and client, which leaves a 12 s run
	// several times that margin on a slower machine.
	sleeperCycle = 1024
	parkedIdle   = 20000
	// parkers is how many goroutines share one connection while set-up parks
	// the idle sessions (the mux answers out of order, so they overlap).
	parkers = 8
)

func (w *mobileSleepers) sizes() (objsPerClient, cycle, idle int) {
	if w.e.quick {
		return 64, 128, 500
	}
	return sleeperObjs, sleeperCycle, parkedIdle
}

func (w *mobileSleepers) setup(e *env) error {
	w.e = e
	w.reg = obs.NewRegistry()
	w.redo.reg = w.reg
	objsPerClient, _, idle := w.sizes()
	w.pers = &ldbs.Persistence{Dir: e.dir, Store: "mem", Obs: w.reg}
	db, err := w.pers.Open(seatsSchemas())
	if err != nil {
		return err
	}
	w.db = db
	all := iota0(objsPerClient * e.clients)
	if err := seedSeats(db, all); err != nil {
		return err
	}
	var st core.Store = core.NewLDBSStore(db)
	if e.tr != nil {
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
		if backend, err = traceBackend(backend, e.tr); err != nil {
			return err
		}
	}
	w.bg = newBackground()
	w.bg.supervise(w.m)
	w.bg.every(checkpointEvery, func() {
		if err := w.pers.Checkpoint(w.db); err == nil {
			w.redo.checkpointed()
		}
	})
	w.gw = gateway.NewServer(backend, gatewayOpts(w.reg))
	addr, done, err := serve(w.gw, func() string { return w.gw.Addr().String() })
	if err != nil {
		return err
	}
	w.done = done
	for i := 0; i < e.clients; i++ {
		mc, err := gateway.DialMux(addr)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, mc)
	}
	if err := w.parkIdle(idle); err != nil {
		return err
	}
	w.model = newModel(len(all))
	w.recs = make([]*recorder, e.clients)
	w.cycles = make([][][]int, e.clients)
	return nil
}

// parkIdle creates n sessions that attach once and detach: the idle mobile
// clients every gateway deployment carries in its parked-session table.
func (w *mobileSleepers) parkIdle(n int) error {
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		first atomic.Pointer[error]
	)
	for _, mc := range w.conns {
		for p := 0; p < parkers; p++ {
			wg.Add(1)
			go func(mc *gateway.MuxConn) {
				defer wg.Done()
				for first.Load() == nil {
					k := next.Add(1)
					if k > int64(n) {
						return
					}
					id := fmt.Sprintf("idle-%d", k)
					_, _, err := mc.Attach(id, "")
					if err == nil {
						err = mc.Detach(id)
					}
					if err != nil {
						first.CompareAndSwap(nil, &err)
						return
					}
				}
			}(mc)
		}
	}
	wg.Wait()
	if errp := first.Load(); errp != nil {
		return fmt.Errorf("parking idle sessions: %w", *errp)
	}
	return nil
}

// sleeper is one open long-running transaction of a client's window.
type sleeper struct {
	tx      string
	session *gateway.SessionClient
	obj     int
	class   sem.Class
	value   int64 // assign: the value written
	pos     int   // script position
	cycle   int
}

func (w *mobileSleepers) client(i int, r *recorder, stop *atomic.Bool) {
	w.recs[i] = r
	mc := w.conns[i]
	_, cycle, _ := w.sizes()
	gen := newSleeperGen(w.e.seed, i, partition(len(w.model), w.e.clients, i), cycle)
	window := make([]sleeper, sleeperWindow)
	var aborted []int // positions aborted in the cycle being finished
	finishing := 0    // cycle index of the transactions phase B is finishing

	call := func(kind sampleKind, name, tx string, fn func() error) bool {
		if err := r.call(kind, name, tx, fn); err != nil {
			r.fail(fmt.Errorf("%s of %s: %w", name, tx, err))
			return false
		}
		return true
	}

	for n := 0; !stop.Load(); n++ {
		// Phase A for transaction n.
		t := gen.next()
		s := sleeper{tx: fmt.Sprintf("t%d-%d", i, n), obj: t.objs[0], class: t.class,
			pos: n % cycle, cycle: n / cycle}
		sessionID := fmt.Sprintf("s%d-%d", i, n)
		operand := sem.Int(-1)
		if t.class == sem.Assign {
			s.value = seatsPerRow + int64(n) + 1
			operand = sem.Int(s.value)
		}
		name := seatObject(s.obj)
		ok := call(kOther, spClientAttach, s.tx, func() (err error) {
			s.session, _, err = mc.Session(sessionID, "")
			return err
		})
		ok = ok && call(kOp, spClientBegin, s.tx, func() error { return s.session.Begin(s.tx) })
		ok = ok && call(kOp, spClientInvoke, s.tx, func() error { return s.session.Invoke(s.tx, name, t.class, "") })
		ok = ok && call(kOp, spClientApply, s.tx, func() error { return s.session.Apply(s.tx, name, operand) })
		ok = ok && call(kOther, spClientDetach, s.tx, func() error { return mc.Detach(sessionID) })
		if !ok {
			s.session = nil // phase B skips it
		}
		slot := n % sleeperWindow
		old := window[slot]
		window[slot] = s
		if n < sleeperWindow {
			continue
		}

		// Phase B for transaction n − window.
		if old.cycle != finishing {
			w.cycles[i] = append(w.cycles[i], aborted)
			aborted = nil
			finishing = old.cycle
		}
		if old.session == nil {
			r.task()
			continue
		}
		oldSession := old.session.ID()
		var resumed bool
		start := r.now()
		ok = call(kOther, spClientResume, old.tx, func() (err error) {
			_, _, err = mc.Attach(oldSession, "")
			return err
		})
		ok = ok && call(kOther, spClientAwake, old.tx, func() (err error) {
			resumed, err = old.session.Awake(old.tx)
			return err
		})
		if ok {
			// awake_p50_ms is resume + awake: what a returning client waits
			// before it can act on its transaction again.
			r.sample(kAwake, start, r.now())
		}
		switch {
		case !ok:
		case !resumed:
			r.aborted++
			aborted = append(aborted, old.pos)
		case call(kCommit, spClientCommit, old.tx, func() error { return old.session.Commit(old.tx) }):
			r.committed++
			if old.class == sem.Assign {
				w.model[old.obj] = old.value
			} else {
				w.model[old.obj]--
			}
		}
		call(kOther, spClientDetach, old.tx, func() error { return mc.Detach(oldSession) })
		r.task()
	}
}

func (w *mobileSleepers) counters() counters { return readCounters(w.reg) }

func (w *mobileSleepers) verify() (verifyReport, error) {
	checked, bad, first, err := checkModel(w.model, func(obj int) (int64, error) { return readSeat(w.db, obj) })
	if err != nil {
		return verifyReport{}, err
	}
	rep := verifyReport{Checked: checked, Mismatches: bad, First: first, Extra: map[string]float64{}}

	// The script is a cycle, so from the second cycle on (the first starts
	// with an empty window) every completed cycle must abort exactly the same
	// positions. A difference is an oracle failure; the abort share over one
	// such cycle is the workload's exact abort percentage.
	_, cycle, _ := w.sizes()
	var abortedPerCycle, cycleClients int
	for i, cs := range w.cycles {
		if len(cs) < 2 {
			continue
		}
		steady := cs[1:]
		for k, c := range steady {
			if !slices.Equal(c, steady[0]) {
				rep.Mismatches++
				if rep.First == "" {
					rep.First = fmt.Sprintf("client %d: cycle %d aborted positions %v, cycle 1 aborted %v", i, k+1, c, steady[0])
				}
			}
		}
		abortedPerCycle += len(steady[0])
		cycleClients++
	}
	if cycleClients == len(w.cycles) && cycleClients > 0 {
		rep.CommitPct = 100 * (1 - float64(abortedPerCycle)/float64(cycle*cycleClients))
		rep.Notes = append(rep.Notes, fmt.Sprintf("script cycle of %d transactions per client: %d awake-aborts per cycle, identical in every completed cycle",
			cycle, abortedPerCycle))
	} else {
		rep.Notes = append(rep.Notes, "fewer than two script cycles completed: the abort share is over all finished transactions, not exact")
		// Too slow a machine to finish two cycles per client: fall back to
		// the share over everything that finished, which is not exact.
		rep.CommitPct = commitShare(w.recs...)
	}

	_, parked := w.gw.SessionCounts()
	if parked > 0 {
		rep.Extra["client.parked_bytes_per_session"] = float64(w.gw.ParkedBytes()) / float64(parked)
	}
	return rep, nil
}

func (w *mobileSleepers) close() error {
	if w.reg != nil {
		w.redoN = w.redo.pending()
	}
	for _, c := range w.conns {
		c.Close()
	}
	w.conns = nil
	var err error
	if w.gw != nil {
		err = w.gw.Close()
		if w.done != nil {
			<-w.done
		}
		w.gw = nil
	}
	if w.bg != nil {
		w.bg.stop()
		w.bg = nil
	}
	if w.m != nil {
		w.m.Close()
		w.m = nil
	}
	if w.pers != nil {
		if cerr := w.pers.Close(); err == nil {
			err = cerr
		}
		w.pers = nil
	}
	return err
}

// recover reopens the directory (snapshot file + WAL tail) and re-checks.
// Transactions still asleep when the run stopped never committed, so they
// leave no trace in the data layer.
func (w *mobileSleepers) recover() (recoverReport, error) {
	return reopenAndCheck(w.e.dir, "mem", w.redoN, w.model)
}
