package frame

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// countWriter counts Write calls.
type countWriter struct {
	bytes.Buffer
	writes int
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestWriteIsOneCall(t *testing.T) {
	var w countWriter
	if err := Write(&w, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("%d writes for one frame, want 1", w.writes)
	}
	if want := []byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'}; !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("frame bytes %v, want %v", w.Bytes(), want)
	}
}

// lastWriter keeps the slice of its last Write call.
type lastWriter struct {
	countWriter
	last []byte
}

func (w *lastWriter) Write(p []byte) (int, error) {
	w.last = p
	return w.countWriter.Write(p)
}

// TestWriteLargeFrameUncopied: a payload above copyLimit reaches the writer
// as the caller's own slice behind its header, not as a copy.
func TestWriteLargeFrameUncopied(t *testing.T) {
	payload := bytes.Repeat([]byte("s"), copyLimit+1)
	var w lastWriter
	if err := Write(&w, payload); err != nil {
		t.Fatal(err)
	}
	if len(w.last) != len(payload) || &w.last[0] != &payload[0] {
		t.Fatal("the large payload was copied before writing")
	}
	got, err := Read(&w.Buffer, copyLimit+1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %d bytes, err %v", len(got), err)
	}
}

// TestReadStreams reads the same frames through a plain reader and through
// bufio readers that see the stream a byte or half a read at a time,
// including a frame larger than the bufio buffer.
func TestReadStreams(t *testing.T) {
	payloads := [][]byte{[]byte("a"), {}, bytes.Repeat([]byte("x"), 3*4096+7), []byte("last")}
	var stream bytes.Buffer
	for _, p := range payloads {
		if err := Write(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	readers := map[string]func() io.Reader{
		"plain":   func() io.Reader { return bytes.NewReader(stream.Bytes()) },
		"onebyte": func() io.Reader { return bufio.NewReader(iotest.OneByteReader(bytes.NewReader(stream.Bytes()))) },
		"half":    func() io.Reader { return bufio.NewReader(iotest.HalfReader(bytes.NewReader(stream.Bytes()))) },
	}
	for name, open := range readers {
		r := open()
		for i, want := range payloads {
			got, err := Read(r, 1<<20)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d: %d bytes, want %d", name, i, len(got), len(want))
			}
		}
		if _, err := Read(r, 1<<20); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
}

func TestReadRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		want error
	}{
		"torn header":  {[]byte{0, 0}, io.ErrUnexpectedEOF},
		"torn payload": {[]byte{0, 0, 0, 4, 'a'}, io.ErrUnexpectedEOF},
		"no payload":   {[]byte{0, 0, 0, 4}, io.ErrUnexpectedEOF},
	} {
		for _, r := range []io.Reader{bytes.NewReader(tc.in), bufio.NewReader(bytes.NewReader(tc.in))} {
			if _, err := Read(r, 16); !errors.Is(err, tc.want) {
				t.Errorf("%s (%T): %v, want %v", name, r, err, tc.want)
			}
		}
	}
	if p, err := Read(bytes.NewReader([]byte{0, 0, 0, 17}), 16); err == nil || p != nil {
		t.Errorf("over-limit frame: err %v, payload of %d bytes", err, len(p))
	}
}
