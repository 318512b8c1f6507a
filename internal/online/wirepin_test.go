package online

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/abstract"
	"repro/internal/sequitur"
)

// wirePins are the configurations whose encodings are committed under
// testdata/wire. Between them they reach every section of both formats:
// eviction sets the grammar's relaxed flag, k=3 fills the pending-digram
// table, and SiteContext fills the streamer's context-name map.
var wirePins = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"maxrules64", Options{MaxRules: 64}},
	{"k3", Options{Sequitur: sequitur.Options{MinRuleOccurrences: 3}}},
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

func readPin(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("wire fixture missing: %v", err)
	}
	return b
}
