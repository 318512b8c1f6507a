package online

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/abstract"
	"repro/internal/sequitur"
)

// wirePins are the configurations whose encodings are committed under
// testdata/wire. Between them they reach every section of both formats:
// eviction sets the grammar's relaxed flag, and SiteContext fills the
// streamer's context-name map.
var wirePins = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"maxrules64", Options{MaxRules: 64}},
	{"sitecontext", Options{HeapNaming: abstract.SiteContext}},
}

// TestWireBytesPinned holds the WPS1 grammar form and the engine state
// form to committed bytes: encoding a fixed session must reproduce the
// fixture exactly, and decoding the fixture and encoding it again must
// too. The fixtures are never regenerated to make this pass; a
// deliberate format change bumps the format's version and adds new ones.
func TestWireBytesPinned(t *testing.T) {
	for _, bench := range []string{"boxsim", "sqlserver"} {
		b := genTrace(t, bench, 2000)
		for _, pin := range wirePins {
			t.Run(bench+"/"+pin.name, func(t *testing.T) {
				e := NewEngine(pin.opts)
				ingestChunked(e, b, 256)
				base := filepath.Join("testdata", "wire", bench+"_"+pin.name)

				want := readPin(t, base+".oeng")
				var got bytes.Buffer
				if _, err := e.WriteState(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("engine state: %d bytes differ from the %d-byte fixture", got.Len(), len(want))
				}
				r, err := ReadEngine(bytes.NewReader(want), pin.opts)
				if err != nil {
					t.Fatal(err)
				}
				got.Reset()
				if _, err := r.WriteState(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatal("engine state: decode and re-encode changed the fixture")
				}

				want = readPin(t, base+".wps")
				got.Reset()
				if _, err := sequitur.NewDAG(e.g, 100).WriteBinary(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("WPS1: %d bytes differ from the %d-byte fixture", got.Len(), len(want))
				}
				g, err := sequitur.ReadBinary(bytes.NewReader(want))
				if err != nil {
					t.Fatal(err)
				}
				got.Reset()
				if _, err := sequitur.NewDAG(g, 100).WriteBinary(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatal("WPS1: decode and re-encode changed the fixture")
				}
			})
		}
	}
}

// TestStateRejectsSequiturK splices SEQUITUR(k) values into the default
// boxsim pin. Live grammars are classic SEQUITUR, so the grammar codec
// must refuse a min-rule-occurrences field of 3 and a pending-digram
// count of 1, and the engine codec a header whose min-rule-occurrences
// field is 3.
func TestStateRejectsSequiturK(t *testing.T) {
	pin := readPin(t, filepath.Join("testdata", "wire", "boxsim_default.oeng"))
	grammar := stateSections(t, pin)[2]
	if _, err := sequitur.ReadState(bytes.NewReader(grammar)); err != nil {
		t.Fatalf("unspliced grammar section: %v", err)
	}
	// The grammar section: magic, version, min rule occurrences, flags,
	// input length, next rule id, root id, rule count, the rules (id,
	// length, symbols), then the pending-digram count.
	minOcc := skipUvarints(t, grammar, 4, 1)
	rules, off := uvarintAt(t, grammar, skipUvarints(t, grammar, minOcc, 5))
	for range rules {
		n, syms := uvarintAt(t, grammar, skipUvarints(t, grammar, off, 1))
		off = skipUvarints(t, grammar, syms, int(n))
	}
	for _, c := range []struct {
		field string
		off   int
		was   byte
	}{{"min rule occurrences", minOcc, 2}, {"pending count", off, 0}} {
		b := splice(t, grammar, c.off, c.was, c.was+1)
		if _, err := sequitur.ReadState(bytes.NewReader(b)); err == nil {
			t.Errorf("grammar state with %s %d: want error, got nil", c.field, c.was+1)
		}
	}
	// The engine header's eighth field is its min rule occurrences.
	b := splice(t, pin, skipUvarints(t, pin, 4, 7), 2, 3)
	if _, err := ReadEngine(bytes.NewReader(b), Options{}); err == nil {
		t.Error("engine state with min rule occurrences 3: want error, got nil")
	}
}

// uvarintAt returns the uvarint of b at off and the offset past it.
func uvarintAt(t *testing.T, b []byte, off int) (uint64, int) {
	t.Helper()
	v, k := binary.Uvarint(b[off:])
	if k <= 0 {
		t.Fatalf("no uvarint at offset %d", off)
	}
	return v, off + k
}

// skipUvarints returns the offset past n uvarints of b starting at off.
func skipUvarints(t *testing.T, b []byte, off, n int) int {
	t.Helper()
	for range n {
		_, off = uvarintAt(t, b, off)
	}
	return off
}

// splice returns a copy of b with the one-byte uvarint at off, which
// must read was, replaced by v.
func splice(t *testing.T, b []byte, off int, was, v byte) []byte {
	t.Helper()
	if b[off] != was {
		t.Fatalf("byte %d is %d, want %d", off, b[off], was)
	}
	out := bytes.Clone(b)
	out[off] = v
	return out
}

func readPin(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("wire fixture missing: %v", err)
	}
	return b
}
