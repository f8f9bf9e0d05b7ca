package main

import (
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"preserial/internal/sem"
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

// TestGTMDRemovedFlagsStayRemoved: the commit-pipeline knobs that became
// constants are rejected by the flag package, so one cannot drift back in
// unnoticed.
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
