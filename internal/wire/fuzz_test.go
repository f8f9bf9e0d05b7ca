package wire

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// FuzzReadMsg checks that arbitrary bytes never panic the frame reader, and
// that a buffered reader that sees the stream one byte or half a read at a
// time decodes the same Request as a plain reader, or fails where it fails.
func FuzzReadMsg(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, &Request{Op: OpInvoke, Tx: "t", Object: "X", Class: "add/sub"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		reqErr := ReadMsg(bytes.NewReader(data), &req) // must never panic
		var resp Response
		_ = ReadMsg(bytes.NewReader(data), &resp)
		for name, r := range map[string]io.Reader{
			"onebyte": bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data))),
			"half":    bufio.NewReader(iotest.HalfReader(bytes.NewReader(data))),
		} {
			var got Request
			err := ReadMsg(r, &got)
			if (err == nil) != (reqErr == nil) {
				t.Fatalf("%s: err %v, plain reader err %v", name, err, reqErr)
			}
			if err == nil && !reflect.DeepEqual(got, req) {
				t.Fatalf("%s: decoded %+v, plain reader %+v", name, got, req)
			}
		}
	})
}

// FuzzValueToSem checks the value converter against arbitrary kinds.
func FuzzValueToSem(f *testing.F) {
	f.Add("int", int64(5), 0.0, "")
	f.Add("float", int64(0), 2.5, "")
	f.Add("string", int64(0), 0.0, "x")
	f.Add("zap", int64(1), 1.0, "y")
	f.Fuzz(func(t *testing.T, kind string, i int64, fl float64, s string) {
		v := Value{Kind: kind, Int: i, F: fl, Str: s}
		sv, err := v.ToSem()
		if err != nil {
			return
		}
		// Valid kinds round-trip.
		back := FromSem(sv)
		sv2, err := back.ToSem()
		if err != nil || !sv.Equal(sv2) {
			t.Fatalf("unstable roundtrip: %s vs %s (%v)", sv, sv2, err)
		}
	})
}
