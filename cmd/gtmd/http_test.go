package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// newDiagHandler assembles the diagnostics stack exactly as main does, on an
// in-memory single-node demo shard, and drives one booking so the metrics
// move.
func newDiagHandler(t *testing.T) *httptest.Server {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := &config{shards: 1, seats: 10, reg: reg, observ: core.NewObservability(reg, 128)}
	s, err := openDemoShard(cfg, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	ctx := context.Background()
	c, err := s.Manager().BeginClient("book1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Invoke(ctx, "Flight/AZ0", sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply("Flight/AZ0", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	live := liveCountBackend(wire.NewManagerBackend(s.Manager()))
	ts := httptest.NewServer(newHTTPHandler(reg, cfg.observ, live, time.Now()))
	t.Cleanup(ts.Close)
	return ts
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newDiagHandler(t)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE gtm_commits_total counter",
		"gtm_commits_total 1",
		"gtm_tx_begun_total 1",
		"# TYPE gtm_commit_seconds histogram",
		`gtm_commit_seconds_bucket{le="+Inf"} 1`,
		"gtmd_uptime_seconds",
		"gtm_transactions_live 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestHealthzEndpoint(t *testing.T) {
	ts := newDiagHandler(t)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		OK         bool    `json:"ok"`
		Uptime     float64 `json:"uptime_s"`
		Goroutines int     `json:"goroutines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Goroutines < 1 {
		t.Fatalf("health = %+v", health)
	}
}

func TestTraceEndpoint(t *testing.T) {
	ts := newDiagHandler(t)
	resp, err := ts.Client().Get(ts.URL + "/debug/trace?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trace struct {
		Total  uint64           `json:"total"`
		Events []obs.TraceEvent `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	if trace.Total == 0 || len(trace.Events) == 0 {
		t.Fatalf("no trace events: %+v", trace)
	}
	kinds := make(map[string]bool)
	for _, ev := range trace.Events {
		kinds[ev.Kind] = true
	}
	if !kinds["begin"] || !kinds["state"] {
		t.Fatalf("expected begin+state events, got kinds %v", kinds)
	}
	// Bad n is rejected.
	bad, err := ts.Client().Get(ts.URL + "/debug/trace?n=zero")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Fatalf("bad n: status %d", bad.StatusCode)
	}
}

func TestPprofEndpoint(t *testing.T) {
	ts := newDiagHandler(t)
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatal("pprof index did not render")
	}
}
