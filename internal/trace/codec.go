package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"strconv"

	"repro/internal/obs"
)

// Record sizes of the on-disk format. Loads, stores and frees use the
// paper's 9-byte layout (kind, PC, address); allocation records append a
// 4-byte size field.
const (
	refRecordSize   = 9
	freeRecordSize  = 9
	allocRecordSize = 13
)

// ErrCorrupt is returned when a trace stream cannot be decoded.
var ErrCorrupt = errors.New("trace: corrupt record stream")

// A CorruptError describes one undecodable record: an unknown kind byte
// or a record cut short by end of stream. It matches ErrCorrupt under
// errors.Is and formats its message lazily — the decode loop only pays
// for the fields, never for fmt-style formatting, and the fields let
// tools (locdiff, the artifact store's verifier) branch on the offset
// without re-parsing the message.
type CorruptError struct {
	Kind    Kind   // record kind, valid when !Unknown
	Byte    byte   // raw kind bits, valid when Unknown
	Offset  uint64 // byte offset of the offending record
	Unknown bool   // unknown kind byte (vs. truncated record)
	Err     error  // underlying read error for truncated records
}

// Unwrap ties CorruptError into the ErrCorrupt sentinel chain.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

func (e *CorruptError) Error() string {
	if e.Unknown {
		return ErrCorrupt.Error() + ": unknown kind " + strconv.Itoa(int(e.Byte)) +
			" at offset " + strconv.FormatUint(e.Offset, 10)
	}
	msg := ErrCorrupt.Error() + ": truncated " + e.Kind.String() +
		" record at offset " + strconv.FormatUint(e.Offset, 10)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// errUnknownKind builds the corruption error for an unrecognized kind
// byte.
//
//lint:coldpath corruption path; taken at most once per stream, never per valid record
func errUnknownKind(b byte, off uint64) error {
	return &CorruptError{Byte: b, Offset: off, Unknown: true}
}

// errTruncated builds the corruption error for a record cut short.
//
//lint:coldpath corruption path; taken at most once per stream, never per valid record
func errTruncated(kind Kind, off uint64, err error) error {
	return &CorruptError{Kind: kind, Offset: off, Err: err}
}

// Writer encodes events to an underlying stream in the binary record
// format. It buffers internally; call Flush before closing the stream.
type Writer struct {
	w   *bufio.Writer
	n   uint64
	err error
}

// NewWriter returns a Writer encoding to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write encodes one event. It reports the first underlying error on every
// subsequent call.
func (tw *Writer) Write(e Event) error {
	if tw.err != nil {
		return tw.err
	}
	var buf [allocRecordSize]byte
	buf[0] = byte(e.Kind) | e.Thread<<3
	binary.LittleEndian.PutUint32(buf[1:5], e.PC)
	binary.LittleEndian.PutUint32(buf[5:9], e.Addr)
	n := refRecordSize
	if e.Kind == Alloc {
		binary.LittleEndian.PutUint32(buf[9:13], e.Size)
		n = allocRecordSize
	}
	if _, err := tw.w.Write(buf[:n]); err != nil {
		tw.err = err
		return err
	}
	tw.n++
	return nil
}

// WriteAll encodes every event in the buffer.
func (tw *Writer) WriteAll(b *Buffer) error {
	for _, e := range b.Events() {
		if err := tw.Write(e); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of events written so far.
func (tw *Writer) Count() uint64 { return tw.n }

// Flush writes any buffered data to the underlying stream.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	tw.err = tw.w.Flush()
	return tw.err
}

// readerBufSize is the Reader's decode-buffer size: one read syscall (or
// one connection-buffer drain) per 64 KiB of trace, ~7 000 records per
// refill.
const readerBufSize = 1 << 16

// Reader decodes events from an underlying stream. It owns its buffer:
// records are decoded in place from the buffered region (straight off
// the connection buffer on the network paths, with no intermediate
// copy), and ReadChunk decodes whole buffered regions with one bounds
// check per record batch instead of a per-record readFull.
type Reader struct {
	src io.Reader
	buf []byte
	// pos/lim delimit the unconsumed buffered bytes: buf[pos:lim].
	pos, lim int
	// srcErr is the sticky terminal condition of src (io.EOF included):
	// once set, no further src.Read calls are made.
	srcErr error
	// off is the byte offset of the next unread record (= stream offset
	// of buf[pos]), reported in corruption errors so a damaged trace
	// file can be located with dd/xxd rather than by re-counting
	// records.
	off uint64

	// Decode instrumentation. Handles are resolved once at construction
	// from the reader's registry (nil when observability is off),
	// and counts are flushed in batches so the per-record cost is one
	// nil-check plus a local increment, never an atomic per record.
	obsRecords *obs.Counter
	obsBytes   *obs.Counter
	pendRecs   uint64
	flushedOff uint64
}

// obsFlushEvery is the decode-counter batch size: large enough that the
// two atomic adds per flush vanish against 4096 record decodes, small
// enough that live dashboards track an in-flight upload.
const obsFlushEvery = 4096

// NewReader returns a Reader decoding from r that counts into the
// process default registry.
func NewReader(r io.Reader) *Reader { return NewReaderObs(r, obs.Default()) }

// NewReaderObs returns a Reader decoding from r that counts decoded
// records and bytes into reg (nil: uncounted).
//
//lint:coldpath stream constructor; one allocation per upload, not per record
func NewReaderObs(r io.Reader, reg *obs.Registry) *Reader {
	return &Reader{
		src:        r,
		buf:        make([]byte, readerBufSize),
		obsRecords: reg.Counter("trace.records"),
		obsBytes:   reg.Counter("trace.bytes"),
	}
}

// flushObs publishes batched decode counts to the registry.
func (tr *Reader) flushObs() {
	tr.obsRecords.Add(tr.pendRecs)
	tr.obsBytes.Add(tr.off - tr.flushedOff)
	tr.pendRecs = 0
	tr.flushedOff = tr.off
}

// Offset returns the byte offset of the next record to be decoded.
func (tr *Reader) Offset() uint64 { return tr.off }

// fill compacts the unconsumed tail to the front of the buffer and reads
// more bytes from the source. Like bufio, it performs at most one
// successful src.Read — a network source hands over whatever is in the
// connection buffer without blocking for a full 64 KiB. On source error
// (io.EOF included) it records the error and stops reading for good.
func (tr *Reader) fill() {
	if tr.srcErr != nil {
		return
	}
	if tr.pos > 0 {
		copy(tr.buf, tr.buf[tr.pos:tr.lim])
		tr.lim -= tr.pos
		tr.pos = 0
	}
	for tr.lim < len(tr.buf) {
		m, err := tr.src.Read(tr.buf[tr.lim:])
		tr.lim += m
		if err != nil {
			tr.srcErr = err
			return
		}
		if m > 0 {
			return
		}
	}
}

// Read decodes the next event. It returns io.EOF at a clean end of stream
// and ErrCorrupt if the stream ends mid-record or contains an unknown
// kind; corruption errors carry the byte offset of the offending record.
func (tr *Reader) Read() (Event, error) {
	for tr.lim == tr.pos && tr.srcErr == nil {
		tr.fill()
	}
	if tr.lim == tr.pos {
		if tr.obsRecords != nil {
			tr.flushObs()
		}
		return Event{}, tr.srcErr
	}
	start := tr.off
	k := tr.buf[tr.pos]
	kind := Kind(k & 7)
	if kind > Path {
		// The bad kind byte is consumed: a caller that chooses to skip
		// past the corruption resumes at the next byte.
		tr.pos++
		tr.off++
		return Event{}, errUnknownKind(k&7, start)
	}
	sz := refRecordSize
	if kind == Alloc {
		sz = allocRecordSize
	}
	for tr.lim-tr.pos < sz && tr.srcErr == nil {
		tr.fill()
	}
	if avail := tr.lim - tr.pos; avail < sz {
		// Truncated record: the stream ended (or broke) mid-record.
		// Consume the fragment; errors follow io.ReadFull's convention
		// for the record body (io.EOF with zero body bytes read,
		// io.ErrUnexpectedEOF after a partial body).
		tr.pos = tr.lim
		tr.off += uint64(avail)
		err := tr.srcErr
		if err == io.EOF && avail > 1 {
			err = io.ErrUnexpectedEOF
		}
		if tr.obsRecords != nil {
			tr.flushObs()
		}
		return Event{}, errTruncated(kind, start, err)
	}
	b := tr.buf[tr.pos:]
	e := Event{
		Kind:   kind,
		Thread: k >> 3,
		PC:     binary.LittleEndian.Uint32(b[1:5]),
		Addr:   binary.LittleEndian.Uint32(b[5:9]),
	}
	if kind == Alloc {
		e.Size = binary.LittleEndian.Uint32(b[9:13])
	}
	tr.pos += sz
	tr.off += uint64(sz)
	if tr.obsRecords != nil {
		if tr.pendRecs++; tr.pendRecs >= obsFlushEvery {
			tr.flushObs()
		}
	}
	return e, nil
}

// ReadAll decodes the entire stream into a buffer.
func ReadAll(r io.Reader) (*Buffer, error) {
	tr := NewReader(r)
	b := NewBuffer(1 << 16)
	for {
		e, err := tr.Read()
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		b.Append(e)
	}
}
