package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Span names, by the seam that records them. The level orders the seams from
// the client inward: a span's parent is the innermost enclosing span of a
// shallower level that belongs to the same transaction.
const (
	spClientBegin  = "client.begin"
	spClientInvoke = "client.invoke"
	spClientApply  = "client.apply"
	spClientCommit = "client.commit"
	spClientRead   = "client.read"
	spClientAwake  = "client.awake"
	spClientAttach = "client.attach"
	spClientResume = "client.resume"
	spClientDetach = "client.detach"

	spBackendBegin  = "backend.begin"
	spBackendInvoke = "backend.invoke"
	spBackendApply  = "backend.apply"
	spBackendCommit = "backend.commit"
	spBackendRead   = "backend.snapshot_read"
	spBackendSleep  = "backend.sleep"
	spBackendAwake  = "backend.awake"

	spShardBegin   = "shard.begin"
	spShardInvoke  = "shard.invoke"
	spShardApply   = "shard.apply"
	spShardCommit  = "shard.commit"
	spShardPrepare = "shard.prepare"
	spShardDecide  = "shard.decide"

	spStoreLoad  = "core.store.load"
	spStoreApply = "core.store.apply_sst"

	spDriverApply         = "ldbs.store.apply"
	spDriverGet           = "ldbs.store.get"
	spDriverCheckpoint    = "ldbs.store.checkpoint"
	spDriverApplyFollower = "ldbs.store.apply.follower"
	spDriverGetFollower   = "ldbs.store.get.follower"
)

// spanLevel maps a span name to its seam depth (0 = client).
func spanLevel(name string) int {
	switch name[0] {
	case 'c':
		if name[1] == 'l' {
			return 0 // client.*
		}
		return 3 // core.store.*
	case 'b':
		return 1
	case 's':
		return 2
	default:
		return 4 // ldbs.store.*
	}
}

// span is one timed call at a seam. Start and End are nanoseconds since the
// tracer's base, a single monotonic origin, so spans recorded on different
// goroutines order correctly. ID and Parent are assigned when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Tx     string `json:"tx,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans from seams that run on the program's own goroutines
// (front-end handlers, SST workers), where no per-goroutine buffer can be
// handed in: slots of one preallocated slice are claimed with an atomic
// counter, so recording neither locks nor allocates. Client goroutines keep
// their own slices (see recorder) and are merged in at the end.
type tracer struct {
	base    time.Time
	on      atomic.Bool
	buf     []span
	next    atomic.Int64
	dropped atomic.Int64
}

// seamSpanCap bounds the seam buffer: ten seconds of the fastest workload
// record well under a million seam spans; beyond the cap spans are counted
// as dropped instead of growing memory during the measurement.
const seamSpanCap = 1 << 21

func newTracer(base time.Time, capacity int) *tracer {
	return &tracer{base: base, buf: make([]span, capacity)}
}

// now is nanoseconds since the base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// start returns the span's start time, or -1 when tracing is off (a nil
// tracer is always off); pass it to end.
func (t *tracer) start() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return t.now()
}

// end records the span begun at start, unless start says tracing was off.
func (t *tracer) end(name, tx string, start int64) {
	if start < 0 {
		return
	}
	end := t.now()
	i := t.next.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = span{Name: name, Tx: tx, Start: start, End: end}
}

// spans returns what the seams recorded.
func (t *tracer) spans() []span {
	n := t.next.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

// linkSpans orders spans by start, numbers them from 1, and sets each
// transaction-carrying span's Parent to the innermost span of a shallower
// seam, same transaction, that encloses it (0 when there is none). Spans
// without a transaction id (store and driver seams) stay roots: they are
// aggregated per workload instead.
func linkSpans(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spanLevel(spans[i].Name) < spanLevel(spans[j].Name)
	})
	open := make(map[string][]int) // per tx: stack of enclosing span indexes
	for i := range spans {
		s := &spans[i]
		s.ID = i + 1
		if s.Tx == "" {
			continue
		}
		stack := open[s.Tx]
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		lvl := spanLevel(s.Name)
		for k := len(stack) - 1; k >= 0; k-- {
			if spanLevel(spans[stack[k]].Name) < lvl {
				s.Parent = spans[stack[k]].ID
				break
			}
		}
		open[s.Tx] = append(stack, i)
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its children cover (children may overlap each other: the union counts).
// spans must have been linked.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from < reach {
				from = reach
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeTrace writes spans as JSON lines to dir/trace-<workload>.jsonl.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanAgg sums spans by name over a time window.
type spanAgg struct {
	count int64
	total int64 // nanoseconds
	self  int64 // nanoseconds not covered by children
}

// aggregate groups the spans that started inside [from, to) by name.
func aggregate(spans []span, self map[int]int64, from, to int64) map[string]*spanAgg {
	out := make(map[string]*spanAgg)
	for _, s := range spans {
		if s.Start < from || s.Start >= to {
			continue
		}
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{}
			out[s.Name] = a
		}
		a.count++
		a.total += s.dur()
		a.self += self[s.ID]
	}
	return out
}

// meanUS is the mean span duration in microseconds (0 without spans).
func (a *spanAgg) meanUS() float64 {
	if a == nil || a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count) / 1e3
}

// selfMeanUS is the mean self time in microseconds.
func (a *spanAgg) selfMeanUS() float64 {
	if a == nil || a.count == 0 {
		return 0
	}
	return float64(a.self) / float64(a.count) / 1e3
}

// totalUS is the summed duration in microseconds.
func (a *spanAgg) totalUS() float64 {
	if a == nil {
		return 0
	}
	return float64(a.total) / 1e3
}

// budgetRow is one line of the commit budget table.
type budgetRow struct {
	Name string  `json:"name"`
	US   float64 `json:"us"`
	Note string  `json:"note,omitempty"`
}

// budget is a workload's commit budget: where the mean traced client commit
// latency went, seam by seam. Remainder is defined as the mean minus the
// other rows, so the rows sum to the mean by construction; a row the
// workload has no seam for reads 0 and its time shows in the row above it
// or in the remainder, as the notes say.
type budget struct {
	Workload      string      `json:"workload"`
	Commits       int64       `json:"commits"`
	MeanCommitUS  float64     `json:"mean_commit_us"`
	Rows          []budgetRow `json:"rows"`
	UntracedP50MS float64     `json:"untraced_commit_p50_ms,omitempty"`
}

func (b budget) sumUS() float64 {
	var s float64
	for _, r := range b.Rows {
		s += r.US
	}
	return s
}

// print renders the table.
func (b budget) print(w *os.File) {
	fmt.Fprintf(w, "commit budget @ %s: %d traced commits, mean %.1f us\n", b.Workload, b.Commits, b.MeanCommitUS)
	for _, r := range b.Rows {
		share := 0.0
		if b.MeanCommitUS > 0 {
			share = 100 * r.US / b.MeanCommitUS
		}
		fmt.Fprintf(w, "  %-28s %10.1f us %6.1f%%  %s\n", r.Name, r.US, share, r.Note)
	}
	fmt.Fprintf(w, "  %-28s %10.1f us (rows) vs %.1f us (mean traced client commit)\n", "sum", b.sumUS(), b.MeanCommitUS)
}
