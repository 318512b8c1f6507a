package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

var magic = [4]byte{'T', 'E', 'S', 'T'}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	w.Uvarint(0)
	w.Uvarint(300)
	w.Uvarint(1 << 63)
	w.Bool(true)
	w.Bytes([]byte("raw"))
	n, err := w.Close()
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("Close = %d, %v; buffer holds %d bytes", n, err, buf.Len())
	}

	r := NewReader(&buf, "test", magic)
	if v := r.Uvarint("a"); v != 0 {
		t.Errorf("a = %d", v)
	}
	if v := r.U32("b"); v != 300 {
		t.Errorf("b = %d", v)
	}
	if v := r.Count("c", 1<<63); v != 1<<63 {
		t.Errorf("c = %d", v)
	}
	if !r.Bool("d") {
		t.Error("d = false")
	}
	raw, err := io.ReadAll(r)
	if err != nil || string(raw) != "raw" {
		t.Errorf("raw = %q, %v", raw, err)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderErrors: the first error names its field and offset, and
// every later read returns zero without replacing it.
func TestReaderErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
		read           func(*Reader)
	}{
		{"empty", "", "test at offset 0: magic: unexpected EOF", nil},
		{"bad magic", "NOPE", `test at offset 0: bad magic "NOPE"`, nil},
		{"truncated varint", "TEST\x05\x80", "test at offset 5: second: unexpected EOF",
			func(r *Reader) { r.Uvarint("first"); r.Uvarint("second") }},
		{"missing field", "TEST\x05", "test at offset 5: second: unexpected EOF",
			func(r *Reader) { r.Uvarint("first"); r.Uvarint("second") }},
		{"count over max", "TEST\x05\x09", "test at offset 5: count 9 exceeds 8",
			func(r *Reader) { r.Uvarint("first"); r.Count("count", 8) }},
		{"bool", "TEST\x02", "test at offset 4: flag 2 exceeds 1",
			func(r *Reader) { r.Bool("flag") }},
		{"u32", "TEST\x80\x80\x80\x80\x10", "test at offset 4: key 4294967296 exceeds 4294967295",
			func(r *Reader) { r.U32("key") }},
		{"string over max", "TEST\x09abc", "test at offset 4: name 9 exceeds 8",
			func(r *Reader) { r.String("name", 8) }},
		{"truncated string", "TEST\x04abc", "test at offset 4: name: unexpected EOF",
			func(r *Reader) { r.String("name", 8) }},
		{"trailing bytes", "TEST\x05\x07", "test at offset 5: trailing bytes",
			func(r *Reader) { r.Uvarint("first"); r.End() }},
		{"failf", "TEST\x05\x07", "test at offset 5: second 7 is odd",
			func(r *Reader) {
				r.Uvarint("first")
				if v := r.Uvarint("second"); v%2 != 0 {
					r.Failf("second %d is odd", v)
				}
			}},
	} {
		r := NewReader(strings.NewReader(tc.in), "test", magic)
		if tc.read != nil {
			tc.read(r)
		}
		err := r.Err()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
			continue
		}
		if v := r.Uvarint("later"); v != 0 {
			t.Errorf("%s: read after error = %d", tc.name, v)
		}
		r.Failf("later")
		if r.Err() != err {
			t.Errorf("%s: first error replaced by %v", tc.name, r.Err())
		}
	}
}

// TestStringAndEnd: strings round-trip, an empty one included, and End
// accepts a stream read to its last byte.
func TestStringAndEnd(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	w.String("session")
	w.String("")
	w.Uvarint(9)
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf, "test", magic)
	a, b, v := r.String("a", 64), r.String("b", 64), r.Uvarint("v")
	r.End()
	if err := r.Err(); err != nil || a != "session" || b != "" || v != 9 {
		t.Fatalf("read %q, %q, %d: %v", a, b, v, err)
	}
}

func TestReaderTruncationIsUnexpectedEOF(t *testing.T) {
	r := NewReader(strings.NewReader("TES"), "test", magic)
	if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v", r.Err())
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

// TestWriterKeepsFirstError: once the destination fails, Close reports
// that error and later writes are dropped.
func TestWriterKeepsFirstError(t *testing.T) {
	w := NewWriter(&failWriter{}, magic)
	for i := 0; i < 10000; i++ { // past the buffer, so a flush fails
		w.Uvarint(uint64(i))
	}
	if _, err := w.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close error = %v", err)
	}
}

// TestWriterFail: an encoder's own error wins over a flush.
func TestWriterFail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	w.Uvarint(7)
	w.Fail(errors.New("bad state"))
	w.Uvarint(8)
	n, err := w.Close()
	if err == nil || err.Error() != "bad state" || n != 5 || buf.Len() != 0 {
		t.Fatalf("Close = %d, %v with %d bytes flushed", n, err, buf.Len())
	}
}
