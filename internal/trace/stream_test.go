package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// streamFixture builds a trace touching every record kind, both regions,
// and several threads.
func streamFixture() *Buffer {
	b := NewBuffer(0)
	b.Alloc(0x100, HeapBase, 64)
	b.Call(0x200)
	for i := 0; i < 100; i++ {
		from := b.Len()
		b.Load(uint32(0x300+i%7), HeapBase+uint32(i%64))
		b.Store(uint32(0x400+i%5), GlobalBase+uint32(i%32))
		b.SetThread(from, b.Len(), uint8(i%MaxThreads))
	}
	b.Path(11)
	b.Return()
	b.Free(HeapBase)
	return b
}

func encode(t *testing.T, b *Buffer) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteAll(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStatsAccumMatchesBufferStats(t *testing.T) {
	b := streamFixture()
	acc := NewStatsAccum()
	for _, e := range b.Events() {
		acc.Add(e)
	}
	if got, want := acc.Stats(), b.Stats(); got != want {
		t.Errorf("StatsAccum = %+v, Buffer.Stats = %+v", got, want)
	}
}

func TestReaderForEach(t *testing.T) {
	b := streamFixture()
	enc := encode(t, b)
	var events []Event
	err := NewReader(bytes.NewReader(enc)).ForEach(func(e Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != b.Len() {
		t.Fatalf("decoded %d events, want %d", len(events), b.Len())
	}
	for i, e := range events {
		if e != b.Events()[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, b.Events()[i])
		}
	}
}

func TestReaderForEachStopsOnCallbackError(t *testing.T) {
	b := streamFixture()
	enc := encode(t, b)
	stop := io.ErrUnexpectedEOF
	n := 0
	err := NewReader(bytes.NewReader(enc)).ForEach(func(Event) error {
		n++
		if n == 3 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("err = %v, want %v", err, stop)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times, want 3", n)
	}
}

func TestReadChunk(t *testing.T) {
	b := streamFixture()
	enc := encode(t, b)
	r := NewReader(bytes.NewReader(enc))
	var got []Event
	chunk := make([]Event, 7)
	for {
		n, err := r.ReadChunk(chunk)
		got = append(got, chunk[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != b.Len() {
		t.Fatalf("decoded %d events, want %d", len(got), b.Len())
	}
	for i, e := range got {
		if e != b.Events()[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, b.Events()[i])
		}
	}
}

func TestReadChunkCorrupt(t *testing.T) {
	enc := encode(t, streamFixture())
	r := NewReader(bytes.NewReader(enc[:len(enc)-3])) // truncate mid-record
	chunk := make([]Event, 1<<12)
	_, err := r.ReadChunk(chunk)
	if err == nil || err == io.EOF {
		t.Fatalf("err = %v, want corrupt-stream error", err)
	}
}

// TestThreadRoundTripExhaustive asserts Event.Thread survives the
// byte(e.Kind) | e.Thread<<3 type-byte packing for every representable
// thread and every kind: the packing has exactly 3 kind bits and 5
// thread bits, so any drift in either field corrupts the other.
func TestThreadRoundTripExhaustive(t *testing.T) {
	kinds := []Kind{Load, Store, Alloc, Free, Call, Return, Path}
	b := NewBuffer(0)
	for th := 0; th < MaxThreads; th++ {
		for _, k := range kinds {
			b.Append(Event{Kind: k, PC: 0x1234, Addr: HeapBase + uint32(th), Size: 8, Thread: uint8(th)})
		}
	}
	enc := encode(t, b)
	got, err := ReadAll(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != b.Len() {
		t.Fatalf("decoded %d events, want %d", got.Len(), b.Len())
	}
	i := 0
	for th := 0; th < MaxThreads; th++ {
		for _, k := range kinds {
			e := got.Events()[i]
			if e.Thread != uint8(th) {
				t.Fatalf("kind %v thread %d: decoded thread %d", k, th, e.Thread)
			}
			if e.Kind != k {
				t.Fatalf("kind %v thread %d: decoded kind %v", k, th, e.Kind)
			}
			i++
		}
	}
}

func TestForEachErrStop(t *testing.T) {
	b := streamFixture()
	enc := encode(t, b)
	var n int
	err := NewReader(bytes.NewReader(enc)).ForEach(func(Event) error {
		n++
		if n == 5 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach with ErrStop = %v, want nil", err)
	}
	if n != 5 {
		t.Fatalf("callback ran %d times after ErrStop at 5", n)
	}
}

func TestForEachCallbackError(t *testing.T) {
	b := streamFixture()
	enc := encode(t, b)
	sentinel := errors.New("boom")
	var n int
	err := NewReader(bytes.NewReader(enc)).ForEach(func(Event) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("ForEach = %v, want the callback's error", err)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times after erroring at 3", n)
	}
}

func TestDecodeStreamsWithoutBuffering(t *testing.T) {
	b := streamFixture()
	enc := encode(t, b)
	// iotest-style one-byte reader: Decode must work on arbitrarily
	// fragmented network reads.
	var got []Event
	err := Decode(oneByteReader{bytes.NewReader(enc)}, func(e Event) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != b.Len() {
		t.Fatalf("decoded %d events, want %d", len(got), b.Len())
	}
	for i, e := range b.Events() {
		if got[i] != e {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], e)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	b := streamFixture()
	enc := encode(t, b)
	err := Decode(bytes.NewReader(enc[:len(enc)-3]), func(Event) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of a truncated stream = %v, want ErrCorrupt", err)
	}
}

// oneByteReader delivers one byte per Read call.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}
