package wps

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func names(n int, period int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i%period) + 1
	}
	return out
}

func TestBuildAndRegenerate(t *testing.T) {
	in := names(5000, 7)
	w := Build(in, DefaultOptions())
	if w.NumRefs != 5000 {
		t.Errorf("NumRefs = %d", w.NumRefs)
	}
	if !reflect.DeepEqual(w.DAG.Expand(), in) {
		t.Fatal("regeneration mismatch")
	}
}

func TestSizeCompressesRegularInput(t *testing.T) {
	in := names(100_000, 9)
	w := Build(in, DefaultOptions())
	st := w.Size()
	// 9 bytes per ref in the paper's trace format vs the grammar:
	// periodic input must compress by orders of magnitude.
	if st.ASCIIBytes*100 > uint64(len(in))*9 {
		t.Errorf("WPS %dB vs trace %dB: less than 100x", st.ASCIIBytes, len(in)*9)
	}
	if st.InputLen != 100_000 {
		t.Errorf("InputLen = %d", st.InputLen)
	}
}

func TestRandomInputBarelyCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := make([]uint64, 20_000)
	for i := range in {
		in[i] = uint64(rng.Intn(10_000))
	}
	w := Build(in, DefaultOptions())
	st := w.Size()
	if st.CompressionRatio() > 3 {
		t.Errorf("random input compressed %vx", st.CompressionRatio())
	}
}

func TestWriteASCII(t *testing.T) {
	w := Build(names(100, 4), DefaultOptions())
	var sb strings.Builder
	n, err := w.DAG.WriteASCII(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || !strings.Contains(sb.String(), "->") {
		t.Errorf("ascii rendering: %q", sb.String())
	}
}

func TestBinaryPersistRoundTrip(t *testing.T) {
	in := names(20_000, 13)
	w := Build(in, DefaultOptions())
	var buf bytes.Buffer
	n, err := w.WriteBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != w.BinarySize() {
		t.Errorf("BinarySize %d != written %d", w.BinarySize(), n)
	}
	// The binary form is substantially smaller than ASCII (§5.2: about
	// half).
	if uint64(n)*2 > w.Size().ASCIIBytes*2 && uint64(n) >= w.Size().ASCIIBytes {
		t.Errorf("binary %d not smaller than ASCII %d", n, w.Size().ASCIIBytes)
	}
	w2, err := LoadBinary(&buf, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w2.NumRefs != w.NumRefs {
		t.Errorf("NumRefs %d != %d", w2.NumRefs, w.NumRefs)
	}
	if !reflect.DeepEqual(w2.DAG.Expand(), in) {
		t.Fatal("reloaded WPS regenerates differently")
	}
}

func TestLoadBinaryGarbage(t *testing.T) {
	if _, err := LoadBinary(bytes.NewReader([]byte("nope")), 100); err == nil {
		t.Fatal("expected error")
	}
}

func TestOptionsDefaults(t *testing.T) {
	w := Build(names(100, 4), Options{})
	if w.DAG == nil {
		t.Fatal("DAG not built with zero options")
	}
	if got := DefaultOptions(); got.MaxStreamLen != 100 {
		t.Errorf("DefaultOptions = %+v", got)
	}
}
