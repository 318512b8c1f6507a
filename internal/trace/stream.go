package trace

import (
	"encoding/binary"
	"errors"
	"io"
)

// ErrStop is the sentinel a ForEach/Decode callback returns to stop
// iteration early without error: the iteration reports success (nil).
// Any other callback error aborts iteration and is returned as-is.
var ErrStop = errors.New("trace: stop iteration")

// This file is the streaming side of the trace codec: chunked and
// per-event iteration over encoded streams, and incremental statistics,
// so analyses can consume traces larger than memory without first
// materializing a Buffer (DINAMITE-style decoupling of trace production
// from analysis).

// StatsAccum computes Table-1 statistics incrementally over an event
// stream: the streaming counterpart of Buffer.Stats. The zero value is
// not ready for use; call NewStatsAccum.
type StatsAccum struct {
	s     Stats
	addrs u32set
	pcs   u32set
}

// The accumulator's sets start at 512 address and 128 PC slots (2.5 KiB
// together), so an idle session costs kilobytes, and double as keys
// arrive.
const (
	addrSetInitHint = 1 << 8
	pcSetInitHint   = 1 << 6
)

// NewStatsAccum returns an empty accumulator.
//
//lint:coldpath accumulator construction; runs once per session or pass
func NewStatsAccum() *StatsAccum {
	a := &StatsAccum{}
	a.addrs.initSet(addrSetInitHint)
	a.pcs.initSet(pcSetInitHint)
	return a
}

// Add accumulates one event.
//
//lint:hotpath per-event statistics; runs once per record on batch and online paths
func (a *StatsAccum) Add(e Event) {
	switch e.Kind {
	case Load, Store:
		a.s.Refs++
		if e.Kind == Load {
			a.s.Loads++
		} else {
			a.s.Stores++
		}
		switch RegionOf(e.Addr) {
		case RegionHeap:
			a.s.HeapRefs++
		case RegionGlobal:
			a.s.GlobalRefs++
		case RegionStack, RegionOther:
			// Counted in Refs but attributed to no tracked region.
		}
		a.addrs.add(e.Addr)
		a.pcs.add(e.PC)
		a.s.TraceBytes += refRecordSize
	case Alloc:
		a.s.Allocs++
		a.s.AllocBytes += uint64(e.Size)
		a.s.TraceBytes += allocRecordSize
	case Free:
		a.s.Frees++
		a.s.TraceBytes += freeRecordSize
	case Call, Return, Path:
		a.s.TraceBytes += refRecordSize
	}
}

// Stats returns the statistics accumulated so far.
func (a *StatsAccum) Stats() Stats {
	s := a.s
	s.Addresses = uint64(a.addrs.len())
	s.PCs = uint64(a.pcs.len())
	return s
}

// ForEach decodes the remainder of the stream, invoking fn for every
// event in order. It stops at a clean end of stream (returning nil), on
// the first decode error, or on the first error from fn (returned
// as-is). A callback returning ErrStop stops iteration early and
// reports success: the early-stop path network consumers use to cap an
// upload without draining it.
//
//lint:hotpath per-event decode loop; every trace record flows through here
func (tr *Reader) ForEach(fn func(Event) error) error {
	for {
		e, err := tr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
}

// Decode is the io.Reader-based decode path: it streams records straight
// off r (a network connection, an HTTP request body, a pipe) into fn,
// one event at a time, without buffering the whole upload. Error
// semantics are ForEach's: nil at clean end of stream or ErrStop,
// decode errors (including ErrCorrupt) and callback errors otherwise.
func Decode(r io.Reader, fn func(Event) error) error {
	return NewReader(r).ForEach(fn)
}

// ReadChunk decodes up to len(dst) events into dst, returning the number
// decoded. It follows io.Reader conventions: a short (or zero-length)
// chunk with nil error is valid mid-stream, io.EOF is returned (with
// n == 0) once the stream is cleanly exhausted, and a decode error is
// returned alongside the events decoded before it.
//
//lint:hotpath chunked decode loop feeding online ingest
func (tr *Reader) ReadChunk(dst []Event) (int, error) {
	n := 0
	for n < len(dst) {
		// Fast path: while the buffered region is guaranteed to contain a
		// whole record of either size, decode in place with one bounds
		// check per record (the loop condition) — no refill checks, no
		// per-record copy out of the buffer.
		if tr.lim-tr.pos >= allocRecordSize {
			buf, pos := tr.buf, tr.pos
			lim := tr.lim - (allocRecordSize - 1)
			start := pos
			recs := uint64(0)
			for n < len(dst) && pos < lim {
				k := buf[pos]
				kind := Kind(k & 7)
				if kind > Path {
					break
				}
				b := buf[pos:]
				e := Event{
					Kind:   kind,
					Thread: k >> 3,
					PC:     binary.LittleEndian.Uint32(b[1:5]),
					Addr:   binary.LittleEndian.Uint32(b[5:9]),
				}
				if kind == Alloc {
					e.Size = binary.LittleEndian.Uint32(b[9:13])
					pos += allocRecordSize
				} else {
					pos += refRecordSize
				}
				dst[n] = e
				n++
				recs++
			}
			tr.pos = pos
			tr.off += uint64(pos - start)
			if tr.obsRecords != nil {
				if tr.pendRecs += recs; tr.pendRecs >= obsFlushEvery {
					tr.flushObs()
				}
			}
			if n == len(dst) {
				break
			}
		}
		// Slow path: fewer than allocRecordSize buffered bytes (refill /
		// stream tail) or a bad kind byte — Read handles refills, EOF and
		// the exact corruption semantics, then the fast loop resumes.
		e, err := tr.Read()
		if err != nil {
			if err == io.EOF && n > 0 {
				return n, nil
			}
			return n, err
		}
		dst[n] = e
		n++
	}
	return n, nil
}
