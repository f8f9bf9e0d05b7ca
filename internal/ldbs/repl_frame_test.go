package ldbs

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"net"
	"reflect"
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

func TestWriteReplMsgOneWrite(t *testing.T) {
	var w countWriter
	if err := writeReplMsg(&w, &replMsg{Kind: replFrames, Epoch: 2, LSN: 9, Data: []byte("frames")}); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("%d writes for one message, want 1", w.writes)
	}
}

// TestReplSnapshotMessageRoundTrip: a snapshot message of several MB, far
// larger than the reader's buffer, crosses a buffered connection intact,
// and the message after it is read from the right position.
func TestReplSnapshotMessageRoundTrip(t *testing.T) {
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(data)
	msgs := []*replMsg{
		{Kind: replSnap, StreamID: 7, Epoch: 3, LSN: 41, Data: data},
		{Kind: replAck, LSN: 41},
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		var err error
		for _, m := range msgs {
			if err = writeReplMsg(a, m); err != nil {
				break
			}
		}
		errc <- err
	}()
	br := bufio.NewReader(b)
	for _, want := range msgs {
		var got replMsg
		if err := readReplMsg(br, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("%s message changed in transit", want.Kind)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// FuzzReadReplMsg: a buffered reader that sees the stream one byte or half
// a read at a time decodes the same message as a plain reader, or fails
// where it fails.
func FuzzReadReplMsg(f *testing.F) {
	var buf bytes.Buffer
	if err := writeReplMsg(&buf, &replMsg{Kind: replFrames, Epoch: 1, LSN: 5, Data: []byte{1, 2, 3}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		var want replMsg
		wantErr := readReplMsg(bytes.NewReader(data), &want)
		for name, r := range map[string]io.Reader{
			"onebyte": bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data))),
			"half":    bufio.NewReader(iotest.HalfReader(bytes.NewReader(data))),
		} {
			var got replMsg
			err := readReplMsg(r, &got)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: err %v, plain reader err %v", name, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded %+v, plain reader %+v", name, got, want)
			}
		}
	})
}
