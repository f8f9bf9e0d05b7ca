package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestGTMLoadAgainstLiveServer builds both binaries and replays a small
// real-time workload over TCP, asserting the load generator's report.
func TestGTMLoadAgainstLiveServer(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	dir := t.TempDir()
	gtmd := filepath.Join(dir, "gtmd")
	gtmload := filepath.Join(dir, "gtmload")
	for bin, pkg := range map[string]string{gtmd: "../gtmd", gtmload: "."} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srv := exec.Command(gtmd, "-addr", addr, "-seats", "100000")
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = srv.Process.Kill()
		_, _ = srv.Process.Wait()
	}()
	waitTCP(t, addr)

	load := exec.Command(gtmload,
		"-addr", addr, "-n", "40", "-alpha", "0.8", "-beta", "0.2",
		"-interarrival", "5ms", "-exec", "20ms", "-disconnect-for", "30ms")
	out, err := load.CombinedOutput()
	if err != nil {
		t.Fatalf("gtmload: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "population: 40") {
		t.Errorf("report missing population:\n%s", text)
	}
	if !strings.Contains(text, "committed:") || !strings.Contains(text, "execution time:") {
		t.Errorf("report incomplete:\n%s", text)
	}
	// At least three quarters must commit even with real disconnections.
	var committed, aborted int
	var pct float64
	if _, err := fmt.Sscanf(findLine(text, "committed:"),
		"committed: %d, aborted: %d (%f%%)", &committed, &aborted, &pct); err != nil {
		t.Fatalf("unparsable report line: %v\n%s", err, text)
	}
	if committed+aborted != 40 {
		t.Errorf("accounting: %d + %d != 40", committed, aborted)
	}
	if committed < 30 {
		t.Errorf("only %d/40 committed", committed)
	}
}

// TestGTMLoadRemovedFlagsStayRemoved: the hand-rolled attach/awake client
// behind -resilient=false is gone, so the flag is rejected by the flag
// package rather than silently ignored.
func TestGTMLoadRemovedFlagsStayRemoved(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "gtmload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-resilient=false"},
	} {
		t.Run(args[0], func(t *testing.T) {
			out, err := exec.Command(bin, args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("gtmload %v: err = %v, want exit status 2\n%s", args, err, out)
			}
			if !strings.Contains(string(out), "flag provided but not defined") {
				t.Fatalf("gtmload %v printed %q, want the flag package's rejection", args, out)
			}
		})
	}
}

func findLine(text, prefix string) string {
	for _, ln := range strings.Split(text, "\n") {
		if strings.HasPrefix(ln, prefix) {
			return ln
		}
	}
	return ""
}

func waitTCP(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(errors.New("server never came up"))
		}
		time.Sleep(25 * time.Millisecond)
	}
}
