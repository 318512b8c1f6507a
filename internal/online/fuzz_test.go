package online

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/abstract"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The handoff decoders read bytes another process wrote, so each one
// must turn any input into either an error or a state that encodes to
// bytes it decodes again. The targets live here, beside the engine-state
// fixtures that seed them: an engine state holds one section for each
// layer codec.

// stateSections splits an engine state into its statistics,
// abstraction and grammar sections.
func stateSections(tb testing.TB, b []byte) [3][]byte {
	tb.Helper()
	rd := wire.NewReader(bytes.NewReader(b), "fixture", engineStateMagic)
	for range len(headerFields) + 3 { // options, then three counters
		rd.Uvarint("header")
	}
	var out [3][]byte
	for i := range out {
		n := rd.Count("section length", uint64(len(b)))
		if rd.Err() != nil {
			break
		}
		out[i] = make([]byte, n)
		if _, err := io.ReadFull(rd, out[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := rd.Err(); err != nil {
		tb.Fatal(err)
	}
	return out
}

// seedFromFixtures adds every committed engine state to f, or the given
// section of each.
func seedFromFixtures(f *testing.F, section int) {
	paths, err := filepath.Glob(filepath.Join("testdata", "wire", "*.oeng"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no engine-state fixtures: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		if section >= 0 {
			b = stateSections(f, b)[section]
		}
		f.Add(b)
	}
}

// reencode checks the fuzz property for one decoder: a decoded value
// encodes to bytes that decode again and encode to the same bytes.
func reencode[T any](t *testing.T, v T, enc func(T, io.Writer) (int64, error), dec func(io.Reader) (T, error)) {
	t.Helper()
	var first, second bytes.Buffer
	if _, err := enc(v, &first); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	v2, err := dec(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decoding the re-encoded bytes: %v", err)
	}
	if _, err := enc(v2, &second); err != nil {
		t.Fatalf("second re-encode: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-encoding is not stable")
	}
}

func FuzzReadEngine(f *testing.F) {
	seedFromFixtures(f, -1)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, pin := range wirePins {
			e, err := ReadEngine(bytes.NewReader(data), pin.opts)
			if err != nil {
				continue
			}
			if err := sequitur.CheckInvariants(e.g); err != nil {
				t.Fatal(err)
			}
			reencode(t, e, (*Engine).WriteState, func(r io.Reader) (*Engine, error) { return ReadEngine(r, pin.opts) })
		}
	})
}

func FuzzReadStatsAccum(f *testing.F) {
	seedFromFixtures(f, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		if a, err := trace.ReadStatsAccum(bytes.NewReader(data)); err == nil {
			reencode(t, a, (*trace.StatsAccum).WriteState, trace.ReadStatsAccum)
		}
	})
}

func FuzzReadStreamer(f *testing.F) {
	seedFromFixtures(f, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := func(r io.Reader) (*abstract.Streamer, error) {
			return abstract.ReadStreamer(r, func(uint64, uint32, uint32) {})
		}
		if s, err := dec(bytes.NewReader(data)); err == nil {
			reencode(t, s, (*abstract.Streamer).WriteState, dec)
		}
	})
}

func FuzzReadState(f *testing.F) {
	seedFromFixtures(f, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := sequitur.ReadState(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := sequitur.CheckInvariants(g); err != nil {
			t.Fatal(err)
		}
		reencode(t, g, (*sequitur.Grammar).WriteState, sequitur.ReadState)
		// The restored grammar keeps growing on its new shard.
		for _, b := range data[:min(len(data), 64)] {
			if err := g.Append(uint64(b % 8)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sequitur.CheckInvariants(g); err != nil {
			t.Fatalf("after appending: %v", err)
		}
	})
}

var offsetRE = regexp.MustCompile(`at offset (\d+)`)

// TestDecodersReportTruncation cuts one encoding of each format at
// every byte: each decoder must fail, never with a bare io.EOF, and
// must name an offset inside the bytes it was given.
func TestDecodersReportTruncation(t *testing.T) {
	e := NewEngine(Options{Sequitur: sequitur.Options{MinRuleOccurrences: 3}})
	e.Ingest(genTrace(t, "197.parser", 400).Events())
	var state, wps bytes.Buffer
	if _, err := e.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	if _, err := sequitur.NewDAG(e.g, 100).WriteBinary(&wps); err != nil {
		t.Fatal(err)
	}
	sec := stateSections(t, state.Bytes())
	sink := func(uint64, uint32, uint32) {}
	for _, c := range []struct {
		name string
		enc  []byte
		dec  func(io.Reader) error
	}{
		{"WPS1", wps.Bytes(), func(r io.Reader) error { _, err := sequitur.ReadBinary(r); return err }},
		{"stats state", sec[0], func(r io.Reader) error { _, err := trace.ReadStatsAccum(r); return err }},
		{"abstraction state", sec[1], func(r io.Reader) error { _, err := abstract.ReadStreamer(r, sink); return err }},
		{"grammar state", sec[2], func(r io.Reader) error { _, err := sequitur.ReadState(r); return err }},
		{"engine state", state.Bytes(), func(r io.Reader) error { _, err := ReadEngine(r, e.opts); return err }},
	} {
		if err := c.dec(bytes.NewReader(c.enc)); err != nil {
			t.Fatalf("%s: whole encoding: %v", c.name, err)
		}
		for cut := 0; cut < len(c.enc); cut++ {
			err := c.dec(bytes.NewReader(c.enc[:cut]))
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s cut at %d: want io.ErrUnexpectedEOF, got %v", c.name, cut, err)
			}
			m := offsetRE.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("%s cut at %d: error lacks an offset: %v", c.name, cut, err)
			}
			if off, _ := strconv.Atoi(m[1]); off > cut {
				t.Fatalf("%s cut at %d: error names offset %d past the cut: %v", c.name, cut, off, err)
			}
		}
	}
}
