package sequitur

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
)

// TestDAGConcurrentReaders exercises every DAG read path from many
// goroutines at once while another goroutine keeps appending to the
// grammar the DAG was built from. The DAG is documented as a frozen
// value that keeps no pointer into its grammar (all memoization —
// affixes, occurrence counts, the rules' IDs — is eager), which the
// parallel analysis engine relies on; this test keeps that honest
// under -race, and every result must equal the one taken before the
// appends began.
func TestDAGConcurrentReaders(t *testing.T) {
	g := New()
	seq := make([]uint64, 0, 4096)
	for i := 0; i < 1024; i++ {
		seq = append(seq, uint64(i%7), uint64(i%5), uint64(i%3), uint64(i%11))
	}
	g.AppendAll(seq)
	d := NewDAG(g, 100)

	var want, wantBinBytes bytes.Buffer
	if _, err := d.WriteASCII(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteBinary(&wantBinBytes); err != nil {
		t.Fatal(err)
	}
	wantBin := d.BinarySize()
	wantSeq := d.Expand()
	wantStats := d.ComputeStats()

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	// The appender grows the grammar by 8,192 references (32 chunks of 256) in chunks,
	// some repeating the old pattern and some new, so rules are
	// created, reused and inlined while the readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := make([]uint64, 0, 128)
		for c := 0; c < 32; c++ {
			chunk = chunk[:0]
			for i := 0; i < 64; i++ {
				chunk = append(chunk, uint64((i*(c+1))%13), uint64(i%7))
			}
			g.AppendAll(chunk)
			g.AppendAll(seq[c*64 : c*64+128])
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				for p := range d.Len() {
					_ = d.Prefix(p, 10)
					_ = d.Suffix(p, 10)
					_ = d.ExpLen(p)
					_ = d.Occ(p)
					_ = d.ID(p)
				}
				if !slices.Equal(d.Expand(), wantSeq) {
					errs[r] = errors.New("Expand changed")
					return
				}
				if got := d.BinarySize(); got != wantBin {
					errs[r] = errors.New("BinarySize changed")
					return
				}
				var buf bytes.Buffer
				if _, err := d.WriteASCII(&buf); err != nil {
					errs[r] = err
					return
				}
				if !bytes.Equal(buf.Bytes(), want.Bytes()) {
					errs[r] = errors.New("WriteASCII bytes changed")
					return
				}
				if got := d.ComputeStats(); got != wantStats {
					errs[r] = errors.New("ComputeStats changed")
					return
				}
				var bin bytes.Buffer
				if _, err := d.WriteBinary(&bin); err != nil {
					errs[r] = err
					return
				}
				if !bytes.Equal(bin.Bytes(), wantBinBytes.Bytes()) {
					errs[r] = errors.New("WriteBinary bytes changed")
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("reader %d: %v", r, err)
		}
	}
	if g.InputLen() != uint64(len(wantSeq))+32*256 {
		t.Fatalf("appender grew the input to %d", g.InputLen())
	}
}
