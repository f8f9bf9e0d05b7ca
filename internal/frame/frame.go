// Package frame is the length-prefixed framing every stream in the stack
// shares — the wire protocol, the replication stream and the coordinator
// log: a 4-byte big-endian payload length, then the payload. It is a leaf
// so that ldbs, which sits below wire, can use it too.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
)

// headerLen is the size of a frame's length prefix.
const headerLen = 4

// copyLimit is the largest payload Write copies behind its header. A
// larger one (a replication snapshot can run to hundreds of MB) is not
// copied: it goes out as net.Buffers, which a socket sends in one writev.
const copyLimit = 64 << 10

// Write sends payload as one frame. A frame split over two writes costs
// two syscalls and can wake the reader twice, so a payload up to copyLimit
// goes out in a single Write call, header included.
func Write(w io.Writer, payload []byte) error {
	if uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("frame: payload of %d bytes does not fit a frame", len(payload))
	}
	if len(payload) > copyLimit {
		var hdr [headerLen]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		bufs := net.Buffers{hdr[:], payload}
		_, err := bufs.WriteTo(w)
		return err
	}
	buf := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[headerLen:], payload)
	_, err := w.Write(buf)
	return err
}

// Read reads one frame of at most limit payload bytes and returns its
// payload. A clean end of stream before the frame is io.EOF; a stream that
// ends inside a frame is io.ErrUnexpectedEOF. Read takes exactly the
// frame's bytes from r, so give it the connection's one buffered reader:
// frames a peer pipelines then cost one read between them.
func Read(r io.Reader, limit int) ([]byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if uint64(n) > uint64(limit) {
		return nil, fmt.Errorf("frame: %d-byte frame exceeds the %d-byte limit", n, limit)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // the header promised more
		}
		return nil, err
	}
	return payload, nil
}
