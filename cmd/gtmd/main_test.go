package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"preserial/internal/gateway"
	"preserial/internal/sem"
	"preserial/internal/shard"
	"preserial/internal/wire"
)

// buildGTMD compiles the server binary once per test run.
func buildGTMD(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gtmd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freePort reserves an ephemeral port.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startGTMD launches the binary and waits for it to accept connections.
func startGTMD(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	return cmd
}

func waitReachable(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cn, err := wire.Dial(addr)
		if err == nil {
			if perr := cn.Ping(); perr == nil {
				return cn
			}
			cn.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("gtmd never became reachable on %s", addr)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestGTMDBinaryEndToEnd builds the real server binary, runs a booking over
// TCP, kills the process, restarts it on the same data directory and
// verifies the booking survived recovery.
func TestGTMDBinaryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	bin := buildGTMD(t)
	dataDir := t.TempDir()
	addr := freePort(t)

	cmd := startGTMD(t, bin, "-addr", addr, "-data", dataDir, "-seats", "100")
	cn := waitReachable(t, addr)

	if err := cn.Begin("trip"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("trip", "Flight/AZ0", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("trip", "Flight/AZ0", sem.Int(-40)); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("trip"); err != nil {
		t.Fatal(err)
	}
	stats, err := cn.Stats()
	if err != nil || stats["committed"] != 1 {
		t.Fatalf("stats = %v, %v", stats, err)
	}
	cn.Close()

	// Crash the server.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()

	// Restart on the same directory: the WAL replays the booking.
	addr2 := freePort(t)
	startGTMD(t, bin, "-addr", addr2, "-data", dataDir, "-seats", "100")
	cn2 := waitReachable(t, addr2)
	defer cn2.Close()

	if err := cn2.Begin("check"); err != nil {
		t.Fatal(err)
	}
	if err := cn2.Invoke("check", "Flight/AZ0", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	v, err := cn2.Read("check", "Flight/AZ0")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int64() != 60 {
		t.Fatalf("recovered seats = %s, want 60", v)
	}
}

// TestGTMDBinaryDiskStore runs the booking-crash-recover cycle of
// TestGTMDBinaryEndToEnd with -store=disk, proving the binary registers
// the disk driver and recovers from the page file + WAL.
func TestGTMDBinaryDiskStore(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	bin := buildGTMD(t)
	dataDir := t.TempDir()
	addr := freePort(t)

	cmd := startGTMD(t, bin, "-addr", addr, "-data", dataDir, "-seats", "100",
		"-store", "disk", "-page-cache-bytes", "65536")
	cn := waitReachable(t, addr)

	if err := cn.Begin("trip"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("trip", "Flight/AZ0", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("trip", "Flight/AZ0", sem.Int(-40)); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("trip"); err != nil {
		t.Fatal(err)
	}
	cn.Close()

	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()

	addr2 := freePort(t)
	startGTMD(t, bin, "-addr", addr2, "-data", dataDir, "-seats", "100",
		"-store", "disk", "-page-cache-bytes", "65536")
	cn2 := waitReachable(t, addr2)
	defer cn2.Close()

	if err := cn2.Begin("check"); err != nil {
		t.Fatal(err)
	}
	if err := cn2.Invoke("check", "Flight/AZ0", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	v, err := cn2.Read("check", "Flight/AZ0")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int64() != 60 {
		t.Fatalf("recovered seats = %s, want 60", v)
	}
}

// TestGTMDBinaryDisconnectSleep verifies the binary's disconnection
// semantics end to end: dropping the TCP connection parks the transaction;
// a new connection attaches, awakens, and commits it.
func TestGTMDBinaryDisconnectSleep(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	bin := buildGTMD(t)
	addr := freePort(t)
	startGTMD(t, bin, "-addr", addr)
	cn := waitReachable(t, addr)

	if err := cn.Begin("mobile"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("mobile", "Hotel/H0", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("mobile", "Hotel/H0", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	cn.Close() // network drops

	cn2 := waitReachable(t, addr)
	defer cn2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cn2.State("mobile")
		if err == nil && st == "Sleeping" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state = %q, %v", st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cn2.Attach("mobile"); err != nil {
		t.Fatal(err)
	}
	resumed, err := cn2.Awake("mobile")
	if err != nil || !resumed {
		t.Fatalf("awake = %v, %v", resumed, err)
	}
	if err := cn2.Commit("mobile"); err != nil {
		t.Fatal(err)
	}
	info, err := cn2.ObjectInfo("Hotel/H0")
	if err != nil {
		t.Fatal(err)
	}
	v, err := info.Members[""].ToSem()
	if err != nil || v.Int64() != 99 {
		t.Fatalf("rooms = %v, %v", v, err)
	}
}

// TestGTMDEveryProcessIsAGateway: a plain single-node gtmd serves gateway
// sessions beside unmodified clients, and honours the -gw-* flags. A
// session's transaction sleeps on detach and is resumed, awakened and
// committed from a second connection; a plain wire.Conn books on the same
// process; and -gw-max-sessions 1 sheds a second session's attach.
func TestGTMDEveryProcessIsAGateway(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	bin := buildGTMD(t)
	addr := freePort(t)
	startGTMD(t, bin, "-addr", addr, "-data", t.TempDir(), "-seats", "100", "-gw-max-sessions", "1")
	cn := waitReachable(t, addr)
	defer cn.Close()

	mc, err := gateway.DialMuxTimeout(addr, 5*time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := mc.Session("phone", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Begin("trip"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Invoke("trip", "Hotel/H0", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := sc.Apply("trip", "Hotel/H0", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	seq := sc.Seq("trip")
	if err := mc.Detach("phone"); err != nil {
		t.Fatal(err)
	}
	mc.Close()
	if st, err := cn.State("trip"); err != nil || st != "Sleeping" {
		t.Fatalf("state after detach = %q, %v; want Sleeping", st, err)
	}

	mc2, err := gateway.DialMuxTimeout(addr, 5*time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	resumed, owned, err := mc2.Attach("phone", "")
	if err != nil || !resumed || len(owned) != 1 || owned[0] != "trip" {
		t.Fatalf("resume = %v, %v, %v; want the parked session owning trip", resumed, owned, err)
	}
	sc2, _, err := mc2.Session("phone", "")
	if err != nil {
		t.Fatal(err)
	}
	sc2.SetSeq("trip", seq)
	if ok, err := sc2.Awake("trip"); err != nil || !ok {
		t.Fatalf("awake = %v, %v", ok, err)
	}
	if err := sc2.Commit("trip"); err != nil {
		t.Fatal(err)
	}

	book(t, cn, "plain", "Hotel/H0")
	wantSeats(t, cn, "check", 98, "Hotel/H0")

	_, _, err = mc2.Attach("tablet", "")
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) || ra.Reason != "sessions" {
		t.Fatalf("second session's attach = %v, want a retry-after sessions rejection", err)
	}
}

// crossShardPair returns two demo objects the ring of n shards routes to
// shards 0 and 1.
func crossShardPair(t *testing.T, n int) (string, string) {
	t.Helper()
	ring := shard.NewRing(n)
	var on [2]string
	for _, d := range demoRefs() {
		if i := ring.Route(d.object); i < 2 && on[i] == "" {
			on[i] = d.object
		}
	}
	if on[0] == "" || on[1] == "" {
		t.Fatalf("no demo object pair spans shards 0 and 1: %v", on)
	}
	return on[0], on[1]
}

// book commits one transaction taking a seat from every object.
func book(t *testing.T, cn *wire.Conn, tx string, objects ...string) {
	t.Helper()
	if err := cn.Begin(tx); err != nil {
		t.Fatal(err)
	}
	for _, obj := range objects {
		if err := cn.Invoke(tx, obj, sem.AddSub, ""); err != nil {
			t.Fatalf("invoke %s: %v", obj, err)
		}
		if err := cn.Apply(tx, obj, sem.Int(-1)); err != nil {
			t.Fatalf("apply %s: %v", obj, err)
		}
	}
	if err := cn.Commit(tx); err != nil {
		t.Fatalf("commit %s: %v", tx, err)
	}
}

// wantSeats reads every object in one transaction and checks its value.
func wantSeats(t *testing.T, cn *wire.Conn, tx string, want int64, objects ...string) {
	t.Helper()
	if err := cn.Begin(tx); err != nil {
		t.Fatal(err)
	}
	for _, obj := range objects {
		if err := cn.Invoke(tx, obj, sem.Read, ""); err != nil {
			t.Fatalf("invoke %s: %v", obj, err)
		}
		v, err := cn.Read(tx, obj)
		if err != nil {
			t.Fatalf("read %s: %v", obj, err)
		}
		if v.Int64() != want {
			t.Fatalf("%s = %s, want %d", obj, v, want)
		}
	}
	if err := cn.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// TestGTMDBinaryShardModes drives one cross-shard booking through the two
// sharded deployments: every shard in one process (surviving kill -9 and a
// restart on the same directory), and one process per participant behind a
// router.
func TestGTMDBinaryShardModes(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	bin := buildGTMD(t)
	a, b := crossShardPair(t, 2)

	t.Run("in-process", func(t *testing.T) {
		dataDir := t.TempDir()
		addr := freePort(t)
		cmd := startGTMD(t, bin, "-addr", addr, "-shards", "2", "-data", dataDir, "-seats", "100")
		cn := waitReachable(t, addr)
		book(t, cn, "trip", a, b)
		stats, err := cn.Stats()
		if err != nil || stats["cluster_cross_commits"] != 1 {
			t.Fatalf("stats = %v, %v; want one cross-shard commit", stats, err)
		}
		cn.Close()
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_, _ = cmd.Process.Wait()
		for _, name := range []string{"shard-0", "shard-1", "coord.wal"} {
			if _, err := os.Stat(filepath.Join(dataDir, name)); err != nil {
				t.Fatalf("data layout: %v", err)
			}
		}

		addr2 := freePort(t)
		startGTMD(t, bin, "-addr", addr2, "-shards", "2", "-data", dataDir, "-seats", "100")
		cn2 := waitReachable(t, addr2)
		defer cn2.Close()
		wantSeats(t, cn2, "check", 99, a, b)
	})

	t.Run("participants+router", func(t *testing.T) {
		var parts []string
		for i := 0; i < 2; i++ {
			addr := freePort(t)
			startGTMD(t, bin, "-addr", addr, "-shards", "2", "-shard-index", strconv.Itoa(i),
				"-data", t.TempDir(), "-seats", "100")
			waitReachable(t, addr).Close()
			parts = append(parts, addr)
		}
		router := freePort(t)
		startGTMD(t, bin, "-addr", router, "-route", strings.Join(parts, ","), "-data", t.TempDir())
		cn := waitReachable(t, router)
		defer cn.Close()
		book(t, cn, "trip", a, b)
		stats, err := cn.Stats()
		if err != nil || stats["cluster_cross_commits"] != 1 {
			t.Fatalf("stats = %v, %v; want one cross-shard commit", stats, err)
		}
		for i, obj := range []string{a, b} {
			pc := waitReachable(t, parts[i])
			wantSeats(t, pc, "check", 99, obj)
			pc.Close()
		}
	})
}

// TestGTMDRejectsIgnoredFlags: flag combinations gtmd would otherwise
// ignore (or half-honor) make it exit non-zero, naming the flag, before it
// opens anything.
func TestGTMDRejectsIgnoredFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	bin := buildGTMD(t)
	data := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		flag string
	}{
		{"index-without-shards", []string{"-shard-index", "3"}, "-shard-index"},
		{"index-past-shards", []string{"-shards", "2", "-shard-index", "2"}, "-shard-index"},
		{"index-below-minus-one", []string{"-shards", "2", "-shard-index", "-2"}, "-shard-index"},
		{"repl-listen-several-shards", []string{"-shards", "2", "-data", data, "-repl-listen", "127.0.0.1:0"}, "-repl-listen"},
		{"repl-listen-router", []string{"-route", "127.0.0.1:1", "-repl-listen", "127.0.0.1:0", "-data", data}, "-repl-listen"},
		{"repl-async-alone", []string{"-repl-async"}, "-repl-async"},
		{"promote-without-replica", []string{"-promote-on-exit", "-data", data}, "-promote-on-exit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			args := append([]string{"-addr", freePort(t)}, tc.args...)
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			var exit *exec.ExitError
			if ctx.Err() != nil || !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("gtmd %v: err = %v, want a non-zero exit\n%s", tc.args, err, out)
			}
			if !strings.Contains(string(out), tc.flag) {
				t.Fatalf("gtmd %v printed %q, want it to name %s", tc.args, out, tc.flag)
			}
		})
	}
}

// TestGTMDRemovedFlagsStayRemoved: knobs that became constants (or, for
// -shard-count, a different spelling) are rejected by the flag package, so
// one cannot drift back in unnoticed.
func TestGTMDRemovedFlagsStayRemoved(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	bin := buildGTMD(t)
	for _, args := range [][]string{
		{"-epoch-commit", "8"},
		{"-epoch-window", "2ms"},
		{"-wal-group-commit=false"},
		{"-wal-group-window", "1ms"},
		{"-sst-workers", "4"},
		{"-sst-queue-depth", "64"},
		{"-trace-depth", "4096"},
		{"-wal-sync-delay", "2ms"},
		{"-gw-lanes", "8"},
		{"-gw-lane-depth", "256"},
		{"-gw-lane-workers", "8"},
		{"-shard-count", "2"},
		{"-gateway"},
	} {
		t.Run(args[0], func(t *testing.T) {
			out, err := exec.Command(bin, args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("gtmd %v: err = %v, want exit status 2\n%s", args, err, out)
			}
			if !strings.Contains(string(out), "flag provided but not defined") {
				t.Fatalf("gtmd %v printed %q, want the flag package's rejection", args, out)
			}
		})
	}
}

// TestGTMDSessionCapDefault: gtmd caps its session table by default, and
// docs/GATEWAY.md's knob table states that cap.
func TestGTMDSessionCapDefault(t *testing.T) {
	if defaultMaxSessions <= 0 {
		t.Fatalf("-gw-max-sessions defaults to %d: an unlimited session table", defaultMaxSessions)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "GATEWAY.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "| `-gw-max-sessions` |") {
			if want := strconv.Itoa(defaultMaxSessions); !strings.Contains(line, want) {
				t.Fatalf("docs/GATEWAY.md states %q, want the default %s", line, want)
			}
			return
		}
	}
	t.Fatal("docs/GATEWAY.md has no -gw-max-sessions row")
}
