package shard

import (
	"encoding/binary"
	"os"
	"syscall"
	"testing"
)

// TestCoordLogAppendOneWrite: a record reaches the log's file in one
// write(2). The log writes to one end of a SOCK_SEQPACKET pair, which
// keeps write boundaries, so each read of the other end returns exactly one
// write.
func TestCoordLogAppendOneWrite(t *testing.T) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_SEQPACKET, 0)
	if err != nil {
		t.Skipf("socketpair: %v", err)
	}
	w, r := os.NewFile(uintptr(fds[0]), "log"), os.NewFile(uintptr(fds[1]), "reader")
	defer r.Close()
	l := &CoordLog{f: w}
	defer l.Close()
	if err := l.LogDone("t1"); err != nil { // unforced: a socket cannot fsync
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	n, err := r.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n < 4 || int(binary.BigEndian.Uint32(buf))+4 != n {
		t.Fatalf("first write carried %d bytes, not one whole record", n)
	}
}
