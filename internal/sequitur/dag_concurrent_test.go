package sequitur

import (
	"bytes"
	"io"
	"slices"
	"sync"
	"testing"
)

// TestDAGConcurrentReaders exercises every DAG read path from many
// goroutines at once. The DAG is documented immutable after NewDAG (all
// memoization — affixes, occurrence counts, the postorder positions — is
// eager), which the parallel analysis engine relies on; this test keeps
// that honest under -race.
func TestDAGConcurrentReaders(t *testing.T) {
	g := New()
	seq := make([]uint64, 0, 4096)
	for i := 0; i < 1024; i++ {
		seq = append(seq, uint64(i%7), uint64(i%5), uint64(i%3), uint64(i%11))
	}
	g.AppendAll(seq)
	d := NewDAG(g, 100)

	var want bytes.Buffer
	if _, err := d.WriteASCII(&want); err != nil {
		t.Fatal(err)
	}
	wantBin := d.BinarySize()
	wantSeq := d.Expand()

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				for p := range d.Order {
					_ = d.Prefix(p, 10)
					_ = d.Suffix(p, 10)
					_ = d.ExpLen(p)
					_ = d.Occ(p)
				}
				if !slices.Equal(d.Expand(), wantSeq) {
					errs[r] = io.ErrShortWrite
					return
				}
				if got := d.BinarySize(); got != wantBin {
					errs[r] = io.ErrShortWrite
					return
				}
				var buf bytes.Buffer
				if _, err := d.WriteASCII(&buf); err != nil {
					errs[r] = err
					return
				}
				if !bytes.Equal(buf.Bytes(), want.Bytes()) {
					errs[r] = io.ErrShortWrite
					return
				}
				_ = d.ComputeStats()
				var bin bytes.Buffer
				if _, err := d.WriteBinary(&bin); err != nil {
					errs[r] = err
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
}
