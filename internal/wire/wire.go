// Package wire is the framing layer under the repository's binary
// codecs: the WPS1 grammar form and the live-state forms that move a
// session between shards. Every format is a 4-byte magic followed by
// unsigned varints.
//
// Both directions keep the first error and turn every later call into a
// no-op, so a codec states its fields in order and checks once. A
// Writer counts the bytes it accepts and reports them, with its first
// error, from Close. A Reader names the field and the byte offset of
// its first error; after an error every read returns zero, so a decoder
// checks Err before it acts on what it read. Counts that size an
// allocation pass through Count, which rejects a claim above the
// caller's bound before the caller allocates.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Writer encodes one framed stream.
type Writer struct {
	bw  *bufio.Writer
	n   int64
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewWriter starts a stream on w with the format's magic.
func NewWriter(w io.Writer, magic [4]byte) *Writer {
	ww := &Writer{bw: bufio.NewWriter(w)}
	ww.Bytes(magic[:])
	return ww
}

// Bytes writes p verbatim.
func (w *Writer) Bytes(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.bw.Write(p)
	w.n += int64(n)
	w.err = err
}

// Uvarint writes v as an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.Bytes(w.buf[:binary.PutUvarint(w.buf[:], v)])
}

// Bool writes b as the varint 0 or 1.
func (w *Writer) Bool(b bool) {
	var v uint64
	if b {
		v = 1
	}
	w.Uvarint(v)
}

// Fail records err, unless an earlier error is already recorded. The
// stream is not flushed again, and Close returns err.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Close flushes the stream and returns the bytes written and the first
// error.
func (w *Writer) Close() (int64, error) {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.n, w.err
}

// Reader decodes one framed stream.
type Reader struct {
	br     *bufio.Reader
	prefix string
	off    int64 // bytes consumed
	at     int64 // offset of the field read last
	err    error
}

// NewReader starts decoding r and checks that it opens with magic.
// prefix, such as "sequitur: state", leads every error.
func NewReader(r io.Reader, prefix string, magic [4]byte) *Reader {
	rd := &Reader{br: bufio.NewReader(r), prefix: prefix}
	var got [4]byte
	if _, err := io.ReadFull(rd, got[:]); err != nil {
		rd.fail("magic", err)
	} else if got != magic {
		rd.Failf("bad magic %q", got[:])
	}
	return rd
}

// Read reads raw bytes, such as the body of a length-prefixed section.
// It bypasses the first-error latch.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.off += int64(n)
	return n, err
}

// ReadByte reads one raw byte. It bypasses the first-error latch.
func (r *Reader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.off++
	}
	return b, err
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint(field string) uint64 {
	if r.err != nil {
		return 0
	}
	r.at = r.off
	v, err := binary.ReadUvarint(r)
	if err != nil {
		r.fail(field, err)
		return 0
	}
	return v
}

// U32 reads an unsigned varint that must fit in 32 bits.
func (r *Reader) U32(field string) uint32 {
	return uint32(r.Count(field, math.MaxUint32))
}

// Count reads an unsigned varint that must not exceed max.
func (r *Reader) Count(field string, max uint64) uint64 {
	v := r.Uvarint(field)
	if v > max {
		r.Failf("%s %d exceeds %d", field, v, max)
		return 0
	}
	return v
}

// Bool reads a flag written by Writer.Bool.
func (r *Reader) Bool(field string) bool {
	return r.Count(field, 1) == 1
}

// Failf records a validation error at the offset of the field read
// last, unless an earlier error is already recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at offset %d: %w", r.prefix, r.at, fmt.Errorf(format, args...))
	}
}

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// fail records a read error. Every field lies inside the stream, so an
// EOF before it is a truncation.
func (r *Reader) fail(field string, err error) {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	r.Failf("%s: %w", field, err)
}
