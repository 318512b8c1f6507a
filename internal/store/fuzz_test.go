package store

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzStoreManifest opens a store whose manifest.json holds arbitrary
// bytes: a store written by another process, or damaged on disk. Open
// must return an error, or a store whose every method works: Names is
// sorted and each name resolves, blob reads of listed digests fail
// cleanly, and Refresh and Put persist a manifest that reopens with the
// new entry.
func FuzzStoreManifest(f *testing.F) {
	f.Add([]byte(`{"version":1,"artifacts":{}}`))
	f.Add([]byte(`{"version":1,"artifacts":{"trace/x":{"kind":"trace","digest":"sha256:00","size":-1,"meta":{"k":"v"}}}}`))
	f.Add([]byte(`{"version":1,"artifacts":{"":{"digest":"sha256:` + "0000000000000000000000000000000000000000000000000000000000000000" + `"},"a":null}}`))
	f.Add([]byte(`{"version":1,"artifacts":null}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		names := s.Names("")
		if !slices.IsSorted(names) {
			t.Fatalf("Names not sorted: %q", names)
		}
		for _, name := range names {
			a, ok := s.Get(name)
			if !ok {
				t.Fatalf("listed name %q does not resolve", name)
			}
			if b, err := s.ReadBlob(a.Digest); err == nil {
				t.Fatalf("blob %q of %q read %d bytes from an empty store", a.Digest, name, len(b))
			}
		}
		if err := s.Refresh(); err != nil {
			t.Fatalf("Refresh of a manifest Open accepted: %v", err)
		}
		d, _, err := s.PutBytes([]byte("blob"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("fuzz/put", Artifact{Kind: KindTrace, Digest: d, Size: 4}); err != nil {
			t.Fatalf("Put: %v", err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("reopening after Put: %v", err)
		}
		if got, ok := re.Get("fuzz/put"); !ok || got.Digest != d {
			t.Fatalf("reopened store lost the Put entry: %+v %v", got, ok)
		}
		want := append(slices.Clone(names), "fuzz/put")
		slices.Sort(want)
		if got := re.Names(""); !slices.Equal(got, slices.Compact(want)) {
			t.Fatalf("reopened store lists %q, want %q", got, want)
		}
	})
}
