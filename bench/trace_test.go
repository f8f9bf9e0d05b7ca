package main

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// A cross-shard commit as the seams see it: the client span encloses the
// backend span, which encloses two prepares and two decides; a driver span
// without a transaction id floats free.
func sampleSpans() []span {
	return []span{
		{Name: spShardDecide, Tx: "t1", Start: 500, End: 700},
		{Name: spClientCommit, Tx: "t1", Start: 0, End: 1000},
		{Name: spShardPrepare, Tx: "t1", Start: 150, End: 200},
		{Name: spBackendCommit, Tx: "t1", Start: 100, End: 900},
		{Name: spShardPrepare, Tx: "t1", Start: 200, End: 300},
		{Name: spShardDecide, Tx: "t1", Start: 700, End: 850},
		{Name: spDriverApply, Start: 600, End: 650},
		{Name: spClientCommit, Tx: "t2", Start: 50, End: 400}, // another client, overlapping in time
		{Name: spBackendCommit, Tx: "t2", Start: 60, End: 380},
	}
}

func TestLinkSpansAndSelfTime(t *testing.T) {
	spans := sampleSpans()
	linkSpans(spans)
	byKey := func(name, tx string, start int64) span {
		for _, s := range spans {
			if s.Name == name && s.Tx == tx && s.Start == start {
				return s
			}
		}
		t.Fatalf("span %s/%s@%d not found", name, tx, start)
		return span{}
	}
	client := byKey(spClientCommit, "t1", 0)
	backend := byKey(spBackendCommit, "t1", 100)
	if client.Parent != 0 {
		t.Errorf("client span has parent %d, want none", client.Parent)
	}
	if backend.Parent != client.ID {
		t.Errorf("backend span's parent = %d, want the client span %d", backend.Parent, client.ID)
	}
	for _, s := range spans {
		switch {
		case s.Tx == "t1" && spanLevel(s.Name) == 2 && s.Parent != backend.ID:
			t.Errorf("%s@%d parent = %d, want the backend span %d", s.Name, s.Start, s.Parent, backend.ID)
		case s.Name == spDriverApply && s.Parent != 0:
			t.Errorf("a span without a transaction id was linked to %d", s.Parent)
		}
	}
	if b2 := byKey(spBackendCommit, "t2", 60); b2.Parent != byKey(spClientCommit, "t2", 50).ID {
		t.Errorf("t2's backend span linked to %d, not to its own client span", b2.Parent)
	}

	self := selfTimes(spans)
	// client: 1000 − backend's 800. backend: 800 − (50 + 100 + 200 + 150).
	if got := self[client.ID]; got != 200 {
		t.Errorf("client self time = %d, want 200", got)
	}
	if got := self[backend.ID]; got != 300 {
		t.Errorf("backend self time = %d, want 300", got)
	}
	// Self times of a tree sum to its root's duration.
	var sum int64
	for _, s := range spans {
		if s.Tx == "t1" {
			sum += self[s.ID]
		}
	}
	if sum != client.dur() {
		t.Errorf("self times of t1 sum to %d, want the client span's %d", sum, client.dur())
	}
}

// Overlapping children count once: self time is the span minus the union.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: spClientCommit, Tx: "t", Start: 0, End: 100},
		{Name: spBackendCommit, Tx: "t", Start: 10, End: 60},
		{Name: spBackendInvoke, Tx: "t", Start: 40, End: 90},
	}
	linkSpans(spans)
	self := selfTimes(spans)
	if got := self[spans[0].ID]; got != 20 { // union [10,90) covers 80 of 100
		t.Errorf("self time with overlapping children = %d, want 20", got)
	}
}

func TestBudgetRowsSumToMean(t *testing.T) {
	spans := sampleSpans()
	v := newTraceView(wlClusterBooking, spans, counters{cSSTs: 3, cFsyncs: 3, cFsyncSeconds: 300e-9}, 2, 0, 2000)
	b := v.commitBudget()
	if b.Commits != 2 {
		t.Fatalf("budget counted %d commits, want 2", b.Commits)
	}
	if diff := b.sumUS() - b.MeanCommitUS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("budget rows sum to %g us, mean is %g us", b.sumUS(), b.MeanCommitUS)
	}
	single, cross := v.clusterSelf()
	if !approx(cross, 0.3) || !approx(single, 0.32) {
		t.Errorf("cluster self = %g (single), %g (cross) us, want 0.32, 0.3", single, cross)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(time.Now(), 4)
	tr.end("x", "", tr.start())
	if n := len(tr.spans()); n != 0 {
		t.Fatalf("tracer recorded %d spans while off", n)
	}
	var off *tracer
	off.end("x", "", off.start()) // a nil tracer is always off
	tr.on.Store(true)
	for i := 0; i < 6; i++ {
		tr.end(spDriverApply, "", tr.start())
	}
	if n, d := len(tr.spans()), tr.dropped.Load(); n != 4 || d != 2 {
		t.Fatalf("full buffer: kept %d dropped %d, want 4 and 2", n, d)
	}
}

func TestWriteTraceIsJSONLines(t *testing.T) {
	spans := sampleSpans()
	linkSpans(spans)
	path, err := writeTrace(t.TempDir(), "unit", spans)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if s.ID == 0 || s.Name == "" || s.End < s.Start {
			t.Fatalf("line %d: malformed span %+v", n, s)
		}
	}
	if n != len(spans) {
		t.Fatalf("trace file has %d lines, want %d", n, len(spans))
	}
}
