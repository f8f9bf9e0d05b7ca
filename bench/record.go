package main

import "time"

// sampleKind classifies one timed client call.
type sampleKind uint8

const (
	kOp     sampleKind = iota // begin, invoke or apply
	kCommit                   // commit call → acknowledgement
	kRead                     // one-shot snapshot read
	kAwake                    // session resume + awake
	kOther                    // a call counted but not reported on its own (attach, detach, awake)
	kTask                     // a completed task; dur is unused
	numSampleKinds
)

// sample is one timed call: when it ended (nanoseconds since the run's
// base) and how long it took.
type sample struct {
	kind sampleKind
	end  int64
	dur  int64
}

// recorder is one client goroutine's private log: every call it makes is a
// sample, and while the tracer is on also a client span. Nothing here is
// shared until the client has stopped.
type recorder struct {
	tr      *tracer // nil in an untraced run
	base    time.Time
	samples []sample
	spans   []span

	attempted int64 // calls made
	failed    int64 // calls failed for a reason other than a GTM semantic abort
	committed int64 // transactions acknowledged committed
	aborted   int64 // transactions ended by a GTM semantic abort
	firstErr  error // first non-semantic failure, for the report
}

// Capacities cover a 15-second run of the fastest workload; append grows
// them if a faster machine needs more.
const (
	sampleCap     = 1 << 20
	clientSpanCap = 1 << 19
)

func newRecorder(base time.Time, tr *tracer) *recorder {
	r := &recorder{tr: tr, base: base, samples: make([]sample, 0, sampleCap)}
	if tr != nil {
		r.spans = make([]span, 0, clientSpanCap)
	}
	return r
}

// now is nanoseconds since the base.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// call times fn as one client call of the given kind; name and tx label the
// client span. It returns fn's error after counting the attempt.
func (r *recorder) call(kind sampleKind, name, tx string, fn func() error) error {
	start := r.now()
	err := fn()
	r.record(kind, name, tx, start, r.now())
	return err
}

// record logs one call that ran from start to end: an attempt, a sample and,
// while the tracer is on, a client span.
func (r *recorder) record(kind sampleKind, name, tx string, start, end int64) {
	r.attempted++
	r.sample(kind, start, end)
	if r.tr != nil && r.tr.on.Load() {
		r.spans = append(r.spans, span{Name: name, Tx: tx, Start: start, End: end})
	}
}

// sample logs a duration that is not a call of its own (a composite of
// calls already recorded).
func (r *recorder) sample(kind sampleKind, start, end int64) {
	r.samples = append(r.samples, sample{kind: kind, end: end, dur: end - start})
}

// taskAt marks one task (a transaction or a one-shot read) complete at end.
func (r *recorder) taskAt(end int64) {
	r.samples = append(r.samples, sample{kind: kTask, end: end})
}

// task marks one task complete now.
func (r *recorder) task() { r.taskAt(r.now()) }

// fail counts a call that failed for a non-semantic reason.
func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// window summarises the samples whose call ended inside [from, to).
type window struct {
	durs   [numSampleKinds][]float64 // milliseconds
	tasks  []int64                   // completion times
	from   int64
	to     int64
	slices int
}

// collect gathers every recorder's samples that ended inside [from, to).
func collect(recs []*recorder, from, to int64, slices int) *window {
	w := &window{from: from, to: to, slices: slices}
	for _, r := range recs {
		for _, s := range r.samples {
			if s.end < from || s.end >= to {
				continue
			}
			if s.kind == kTask {
				w.tasks = append(w.tasks, s.end)
				continue
			}
			w.durs[s.kind] = append(w.durs[s.kind], float64(s.dur)/1e6)
		}
	}
	return w
}

// rates are the per-slice task completion rates.
func (w *window) rates() []float64 { return sliceRates(w.tasks, w.from, w.to, w.slices) }

// sorted returns one kind's latencies in ascending order.
func (w *window) sorted(k sampleKind) []float64 { return sortedCopy(w.durs[k]) }
